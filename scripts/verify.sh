#!/usr/bin/env bash
# Tier-1 verification plus a cheap smoke campaign.
#
# 1. Build + test exactly what the ROADMAP calls tier-1, then every
#    crate's own unit and integration tests (`cargo test --workspace`:
#    tier-1 compiles the root package only) and the ruler: the
#    `benchmark/` package's tests and its `--smoke` run, which exits
#    non-zero unless every workload's result line says `"correct":true`
#    (rows digest unchanged, no failed experiment, no failed check).
# 2. Run the campaign-throughput bench on a 2% plan over the full
#    scenario registry × the full fault registry (the paper's wire
#    triplet plus delay, duplicate, partition, crash-restart) so perf
#    regressions and cross-executor determinism breaks are caught
#    without paying for a full campaign. The bench asserts
#    work-stealing and static-chunk executors produce identical rows
#    and writes BENCH_campaign.json (scenario and fault counts
#    included, so the perf trajectory shows coverage growth).
# 3. Run one new-scenario-only slice (rolling-update) to smoke the
#    MUTINY_SCENARIOS filter and the scenario-keyed TSV cache paths.
# 4. Run one partition-fault-only slice to smoke the MUTINY_FAULTS
#    filter, the fault-keyed cache identity, and the window-fault
#    actuation path end to end.
# 5. Run one kubelet-crash-restart-only slice to smoke the node-level
#    fault path: per-node channel identity, victim planning from the
#    per-node traffic catalogue, and the blackout world actions
#    (silence + restart) end to end.
# 6. Re-run the partition slice with MUTINY_DECODE_CACHE=0 (every
#    watch-cache sync decodes from bytes) and diff its TSV against the
#    cached-mode TSV byte for byte: the revision-keyed decode cache must
#    be a pure performance device.
# 7. Re-run the partition slice with MUTINY_FORK=0 (replay the golden
#    prefix from t=0 instead of forking the world snapshot) and diff its
#    TSV against the forked-mode TSV byte for byte, then run the same
#    slice as MUTINY_SHARD=0/2 + 1/2, merge the shard TSVs with the
#    merge_shards bin, and diff the merge against the unsharded TSV:
#    fork-the-world and residue-class sharding must both be pure
#    performance devices.
# 8. Run one etcd-disk-full-only slice (the storage fault path: windowed
#    disk-budget clamp, write rejection, world-action actuation between
#    slices), then re-run it with MUTINY_STORAGE=log and diff the
#    log-engine TSV (cache suffix `_log`) against the mem TSV byte for
#    byte: the storage engine must be a pure implementation choice.
# 9. Run one cfg-resources-only slice through the ablation bench: the
#    config-defect admission path end to end, with the validating-
#    admission arm A/B'd against the unmitigated arm (per-family
#    detection coverage is printed by the bench).
# 10. Trace round trip: export the deploy scenario's golden trace from a
#    2% smoke slice (MUTINY_TRACE_EXPORT), replay it as a registered
#    trace scenario (MUTINY_TRACES), and diff the two golden-baseline
#    TSVs byte for byte — the replay must reproduce the recorded run.
#    A two-scenario MUTINY_GEN slice rides along to smoke the generator
#    registration path end to end.
#
# The step-2 smoke campaign also runs with MUTINY_METRICS set: the JSON
# export is schema-validated by the telemetry crate's own validator, a
# nonzero golden-prefix share is asserted (the phase profiler must have
# attributed experiment time), and BENCH_campaign.json must carry the
# phase breakdown.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo clippy --release -- -D warnings =="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== crate tests: cargo test --workspace --offline -q =="
cargo test --workspace --offline -q

echo "== the ruler: benchmark tests + --smoke =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml
# Exits non-zero (and `set -e` stops here) unless all four workloads
# printed `"correct":true`.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

# The TSV/baseline caches under target/ trust that the simulation code
# has not changed since they were written (they are keyed by env, not by
# code version). verify.sh is exactly the place where the code *has*
# changed, so clear them all: every smoke slice below must run fresh
# against the current build, and the decode-cache A/B must never diff
# against (or resume from) rows produced by an older commit.
TARGET_DIR="${CARGO_TARGET_DIR:-target}"
rm -f "$TARGET_DIR"/mutiny_campaign_*.tsv "$TARGET_DIR"/mutiny_campaign_*.tsv.partial \
      "$TARGET_DIR"/mutiny_baseline_*.tsv "$TARGET_DIR"/mutiny_baseline_*.tsv.partial

echo "== smoke campaign, full registries (MUTINY_SCALE=0.02, metrics on) =="
METRICS_JSON="$(pwd)/$TARGET_DIR/verify_metrics.json"
rm -f "$METRICS_JSON"
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_METRICS="$METRICS_JSON" \
cargo bench -q -p mutiny-bench --bench campaign_throughput

echo "== telemetry: validate JSON export + golden-prefix share =="
if [ ! -s "$METRICS_JSON" ]; then
  echo "FAIL: MUTINY_METRICS produced no JSON export at $METRICS_JSON"
  exit 1
fi
cargo run -q --release -p mutiny-telemetry --bin validate_metrics -- \
  "$METRICS_JSON" --require-prefix-share
if ! grep -q '"golden_prefix_share"' BENCH_campaign.json; then
  echo "FAIL: BENCH_campaign.json is missing the phase breakdown"
  exit 1
fi
if ! grep -q '"detection_latency"' BENCH_campaign.json; then
  echo "FAIL: BENCH_campaign.json is missing the detection-latency table"
  exit 1
fi
if ! grep -q '"storage_backend"' BENCH_campaign.json; then
  echo "FAIL: BENCH_campaign.json is missing the storage backend name"
  exit 1
fi

echo "== smoke campaign, rolling-update slice (MUTINY_SCALE=0.02) =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_SCENARIOS=rolling-update \
cargo bench -q -p mutiny-bench --bench table4_of_stats

echo "== smoke campaign, partition-fault slice (MUTINY_SCALE=0.02) =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=partition \
cargo bench -q -p mutiny-bench --bench table4_of_stats

echo "== smoke campaign, kubelet-crash-restart slice (MUTINY_SCALE=0.02) =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=kubelet-crash-restart \
cargo bench -q -p mutiny-bench --bench table4_of_stats

echo "== decode-cache A/B: partition slice with MUTINY_DECODE_CACHE=0 =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=partition \
MUTINY_DECODE_CACHE=0 \
cargo bench -q -p mutiny-bench --bench table4_of_stats
nodc_found=0
for nodc in "$TARGET_DIR"/mutiny_campaign_*_nodc.tsv; do
  [ -e "$nodc" ] || continue
  nodc_found=1
  cached="${nodc%_nodc.tsv}.tsv"
  if ! diff -q "$cached" "$nodc"; then
    echo "FAIL: MUTINY_DECODE_CACHE=0 changed the campaign TSV ($cached vs $nodc)"
    exit 1
  fi
done
if [ "$nodc_found" != 1 ]; then
  echo "FAIL: the MUTINY_DECODE_CACHE=0 slice produced no TSV to diff"
  exit 1
fi

echo "== fork A/B: partition slice with MUTINY_FORK=0 =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=partition \
MUTINY_FORK=0 \
cargo bench -q -p mutiny-bench --bench table4_of_stats
nofork_found=0
for nofork in "$TARGET_DIR"/mutiny_campaign_*_nofork.tsv; do
  [ -e "$nofork" ] || continue
  nofork_found=1
  forked="${nofork%_nofork.tsv}.tsv"
  if ! diff -q "$forked" "$nofork"; then
    echo "FAIL: MUTINY_FORK=0 changed the campaign TSV ($forked vs $nofork)"
    exit 1
  fi
done
if [ "$nofork_found" != 1 ]; then
  echo "FAIL: the MUTINY_FORK=0 slice produced no TSV to diff"
  exit 1
fi

echo "== shard merge: partition slice as MUTINY_SHARD=0/2 + 1/2 =="
for s in 0 1; do
  MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
  MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
  MUTINY_FAULTS=partition \
  MUTINY_SHARD="$s/2" \
  cargo bench -q -p mutiny-bench --bench table4_of_stats
done
shard_found=0
for shard0 in "$TARGET_DIR"/mutiny_campaign_*_shard0of2.tsv; do
  [ -e "$shard0" ] || continue
  shard_found=1
  shard1="${shard0%_shard0of2.tsv}_shard1of2.tsv"
  unsharded="${shard0%_shard0of2.tsv}.tsv"
  merged="$TARGET_DIR/verify_merged_shards.tsv"
  cargo run -q --release -p mutiny-bench --bin merge_shards -- \
    "$merged" "$shard0" "$shard1"
  if ! diff -q "$unsharded" "$merged"; then
    echo "FAIL: two-shard merge differs from the unsharded TSV ($unsharded)"
    exit 1
  fi
done
if [ "$shard_found" != 1 ]; then
  echo "FAIL: the MUTINY_SHARD slices produced no shard TSVs to merge"
  exit 1
fi

echo "== storage slice + engine A/B: etcd-disk-full, mem then MUTINY_STORAGE=log =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=etcd-disk-full \
cargo bench -q -p mutiny-bench --bench table4_of_stats
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_FAULTS=etcd-disk-full \
MUTINY_STORAGE=log \
cargo bench -q -p mutiny-bench --bench table4_of_stats
log_found=0
for logtsv in "$TARGET_DIR"/mutiny_campaign_*_log.tsv; do
  [ -e "$logtsv" ] || continue
  log_found=1
  mem="${logtsv%_log.tsv}.tsv"
  if ! diff -q "$mem" "$logtsv"; then
    echo "FAIL: MUTINY_STORAGE=log changed the campaign TSV ($mem vs $logtsv)"
    exit 1
  fi
done
if [ "$log_found" != 1 ]; then
  echo "FAIL: the MUTINY_STORAGE=log slice produced no TSV to diff"
  exit 1
fi

echo "== smoke ablation, cfg-resources slice: validating on/off A/B =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_ABLATION_GOLDEN=${MUTINY_ABLATION_GOLDEN:-4} \
MUTINY_SCENARIOS=deploy \
MUTINY_FAULTS=cfg-resources \
cargo bench -q -p mutiny-bench --bench ablation_mitigations | tee /tmp/mutiny_cfg_ablation.out
if ! grep -q "^cfg-resources" /tmp/mutiny_cfg_ablation.out; then
  echo "FAIL: ablation bench printed no cfg-resources coverage row"
  exit 1
fi

echo "== trace round trip: export deploy, replay, diff baseline TSVs =="
# Absolute path: cargo runs bench binaries with the *package* directory
# as CWD, so a relative trace dir would land under crates/bench/.
TRACE_DIR="$(pwd)/$TARGET_DIR/verify_traces"
rm -rf "$TRACE_DIR"
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_SCENARIOS=deploy \
MUTINY_TRACE_EXPORT="$TRACE_DIR" \
cargo bench -q -p mutiny-bench --bench table4_of_stats
if [ ! -s "$TRACE_DIR/deploy.trace" ]; then
  echo "FAIL: trace export produced no deploy.trace"
  exit 1
fi
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_TRACES="$TRACE_DIR" \
MUTINY_SCENARIOS=trace-deploy \
cargo bench -q -p mutiny-bench --bench table4_of_stats
runs="${MUTINY_GOLDEN_RUNS:-6}"
seed="${MUTINY_SEED:-2024}"
src_baseline="$TARGET_DIR/mutiny_baseline_deploy_g${runs}_seed${seed}.tsv"
replay_baseline="$TARGET_DIR/mutiny_baseline_trace-deploy_g${runs}_seed${seed}.tsv"
if ! diff -q "$src_baseline" "$replay_baseline"; then
  echo "FAIL: replayed golden baseline differs from the recorded scenario's"
  exit 1
fi

echo "== smoke campaign, generated-scenario slice (MUTINY_GEN=2:7) =="
MUTINY_SCALE=${MUTINY_SCALE:-0.02} \
MUTINY_GOLDEN_RUNS=${MUTINY_GOLDEN_RUNS:-6} \
MUTINY_GEN=2:7 \
MUTINY_SCENARIOS=gen-7-0,gen-7-1 \
cargo bench -q -p mutiny-bench --bench table4_of_stats

echo "== verify OK =="
