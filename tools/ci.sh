#!/usr/bin/env bash
# Tier-1 CI gate: RelWithDebInfo build + full test suite, then the ASan
# preset (build + the fast chaos/FGM teardown and callback subset).
#
# A lint gate runs right after the default-preset tests:
#   * rill_lint (tools/lint) enforces the determinism rules R1–R4, the
#     metric-name grammar R5 and the callback-lifetime rule R6 over src/
#     bench/ tools/ in one sequential scan and must report zero findings —
#     any new violation fails the gate (the linter has no baseline to
#     suppress one);
#   * clang-tidy runs the checked-in .clang-tidy profile over src/ when
#     the binary is available (skipped with a notice otherwise — the
#     profile needs no network, just an installed clang-tidy).
# `--skip-lint` opts out of both.
#
# A determinism gate follows: each migration strategy's reference config
# (see tests/determinism/README.md) runs twice in each of three modes —
# full blobs, --ckpt-delta 1, and --ckpt-adaptive 1 (delta on, RTO 45 s) —
# the two JSONL traces and reports of each pair must be byte-identical
# (the det_arm function below runs one such arm), and the first
# run's artifacts must match the committed sha256 manifests
# (baseline.sha256 for full blobs, baseline-delta.sha256 for delta mode,
# baseline-adaptive.sha256 for the adaptive checkpoint policy).  The FGM
# strategy runs its own full-blob double-run against baseline-fgm.sha256 —
# the three FGM-off manifests above must stay byte-identical regardless.
# A fifth arm pins the closed loop: the Keyed dag under the bench traffic
# (diurnal + flash crowd + Zipf keys + CPU steal) with --autoscale 1 runs
# twice and checks baseline-autoscale.sha256; the four autoscale-off
# manifests above must stay byte-identical regardless.
# The det_manifests table lists the artifacts each manifest pins.
# `--regen-determinism` rewrites all five manifests instead of checking
# them (for PRs that sanction a behavioral change).
#
# An attribution gate follows: each strategy's reference config reruns
# with 1-in-4 tuple sampling and rill_trace --check asserts the sampled
# per-cause components sum to each tuple's end-to-end latency and that
# the post-request slow tail is pause-dominated. The committed golden
# trace (tests/obs/data/small_trace.jsonl) is checked too. Sampling runs
# write into separate files, so the determinism manifests above never see
# an attribution record.
#
# A bench gate follows the attribution gate: bench_redis_checkpoint --check
# is the checkpoint-store tier's one gate — its COMMIT and restore shard
# sweeps (shards 1 and 4) fail on a >20% regression of the single-shard
# baseline or a lost sharding win — bench_ckpt_policy --check asserts the adaptive policy
# meets its RTO at p95 without writing more checkpoint bytes than the
# static RTO-tuned baseline, bench_autoscale --check asserts the
# closed-loop controller holds the SLO through a 10-100x load swing while
# beating the static packed baseline's burn and choosing FGM for the keyed
# hot shard, bench_micro --check asserts the
# observability layer's zero-cost-when-disabled and <5%-when-sampling
# overhead contracts, and bench_fig9_latency --check asserts the fluid
# strategy's whole-run p99 stays strictly below CCR's pause-bounded p99
# under the 420 s seed-1 Grid scale-in. Before those, the benchmark
# package (perfbench/) is configured into build/perfbench against src/ and
# its rill_bench_selftest is built and run, so a src/ API change that
# breaks the benchmark fails here. `--skip-bench` opts out.
#
# Usage: tools/ci.sh [--skip-asan] [--skip-bench] [--skip-lint]
#                    [--regen-determinism]
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=1
run_bench=1
run_lint=1
regen_determinism=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) run_asan=0 ;;
    --skip-bench) run_bench=0 ;;
    --skip-lint) run_lint=0 ;;
    --regen-determinism) regen_determinism=1 ;;
    *)
      echo "ci.sh: unknown option: $arg" >&2
      echo "usage: tools/ci.sh [--skip-asan] [--skip-bench] [--skip-lint]" \
           "[--regen-determinism]" >&2
      exit 2
      ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> tier-1: configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "$jobs"

echo "==> tier-1: ctest (default preset)"
ctest --preset default -j "$jobs"

if [ "$run_lint" = 1 ]; then
  echo "==> lint gate: rill_lint (rules R1-R6)"
  ./build/tools/lint/rill_lint --root .

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> lint gate: clang-tidy (.clang-tidy profile)"
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(find src -name '*.cpp' | sort)
  else
    echo "==> lint gate: clang-tidy not installed; skipping (profile: .clang-tidy)"
  fi
fi

echo "==> determinism gate: double-run + committed manifests (seed 1, grid)"
det_dir="build/determinism"
rm -rf "$det_dir" && mkdir -p "$det_dir"

# det_arm NAME RILL_RUN_FLAGS...: run rill_run twice with the given flags,
# require byte-identical traces and reports, and keep the first run as
# $det_dir/NAME.jsonl and $det_dir/NAME.json.
det_arm() {
  local name="$1" pass
  shift
  for pass in 1 2; do
    ./build/tools/rill_run "$@" \
      --trace-jsonl "$det_dir/$name.run$pass.jsonl" --json \
      > "$det_dir/$name.run$pass.json"
  done
  cmp "$det_dir/$name.run1.jsonl" "$det_dir/$name.run2.jsonl" \
    || { echo "ci.sh: $name trace differs between identical runs" >&2
         exit 1; }
  cmp "$det_dir/$name.run1.json" "$det_dir/$name.run2.json" \
    || { echo "ci.sh: $name report differs between identical runs" >&2
         exit 1; }
  cp "$det_dir/$name.run1.jsonl" "$det_dir/$name.jsonl"
  cp "$det_dir/$name.run1.json" "$det_dir/$name.json"
}

grid_flags=(--dag grid --scale in --seed 1 --duration 420 --migrate-at 60)
for mode in full delta adaptive; do
  case "$mode" in
    delta)    mode_flags=(--ckpt-delta 1); tag=".delta" ;;
    adaptive) mode_flags=(--ckpt-delta 1 --ckpt-adaptive 1
                          --ckpt-rto-ms 45000)
              tag=".adaptive" ;;
    *)        mode_flags=(--ckpt-delta 0); tag="" ;;
  esac
  for s in dsm dcr ccr; do
    det_arm "$s$tag" --strategy "$s" "${grid_flags[@]}" "${mode_flags[@]}"
  done
done
# FGM arm (full blobs only): a fourth manifest for the fluid strategy.  It
# runs after — and fully apart from — the three FGM-off strategies above,
# so their manifests cannot be perturbed by the new code path.
det_arm fgm --strategy fgm "${grid_flags[@]}" --ckpt-delta 0
# Autoscale arm: the closed loop on the Keyed dag under the bench traffic
# (tests/determinism/README.md).  Runs after — and fully apart from — the
# autoscale-off arms above, so their manifests cannot be perturbed by the
# controller code path.
det_arm autoscale --dag keyed --autoscale 1 \
  --autoscale-slo-p99-ms 1500 \
  --traffic-base 2 --traffic-diurnal 0.5 --traffic-diurnal-period-s 600 \
  --traffic-crowd 200,15,120,30,18 --traffic-zipf 0.6 \
  --interference-permille 600 \
  --seed 1 --duration 900 --ckpt-delta 0

# Manifest -> the artifacts it pins, in the order the manifest lists them.
det_manifests=(
  "baseline.sha256: dsm.jsonl dsm.json dcr.jsonl dcr.json ccr.jsonl ccr.json"
  "baseline-delta.sha256: dsm.delta.jsonl dsm.delta.json
     dcr.delta.jsonl dcr.delta.json ccr.delta.jsonl ccr.delta.json"
  "baseline-adaptive.sha256: dsm.adaptive.jsonl dsm.adaptive.json
     dcr.adaptive.jsonl dcr.adaptive.json
     ccr.adaptive.jsonl ccr.adaptive.json"
  "baseline-fgm.sha256: fgm.jsonl fgm.json"
  "baseline-autoscale.sha256: autoscale.jsonl autoscale.json"
)
for entry in "${det_manifests[@]}"; do
  manifest="tests/determinism/${entry%%:*}"
  artifacts="${entry#*:}"
  if [ "$regen_determinism" = 1 ]; then
    # shellcheck disable=SC2086
    ( cd "$det_dir" && sha256sum $artifacts ) > "$manifest"
  else
    ( cd "$det_dir" && sha256sum -c "../../$manifest" ) \
      || { echo "ci.sh: artifacts drifted from $manifest;" \
                "if the change is sanctioned, rerun with --regen-determinism" >&2
           exit 1; }
  fi
done
if [ "$regen_determinism" = 1 ]; then
  echo "==> determinism gate: manifests regenerated" \
       "(tests/determinism/baseline.sha256, baseline-delta.sha256," \
       "baseline-adaptive.sha256, baseline-fgm.sha256," \
       "baseline-autoscale.sha256) — commit them with the PR"
fi

echo "==> attribution gate: 1-in-4 sampled runs + rill_trace --check"
for s in dsm dcr ccr; do
  ./build/tools/rill_run --strategy "$s" --dag grid --scale in \
    --seed 1 --duration 420 --migrate-at 60 --ckpt-delta 0 \
    --attr-sample 4 --slo-p99-ms 1000 \
    --trace-jsonl "$det_dir/$s.attr.jsonl" --json \
    > "$det_dir/$s.attr.json"
  ./build/tools/rill_trace "$det_dir/$s.attr.jsonl" --check \
    || { echo "ci.sh: rill_trace --check failed for $s" >&2; exit 1; }
done
./build/tools/rill_trace tests/obs/data/small_trace.jsonl --check \
  || { echo "ci.sh: rill_trace --check failed on the golden trace" >&2
       exit 1; }

if [ "$run_bench" = 1 ]; then
  echo "==> bench gate: perfbench package builds against src/ + self-test"
  cmake -S perfbench -B build/perfbench
  cmake --build build/perfbench -j "$jobs" --target rill_bench_selftest
  ./build/perfbench/rill_bench_selftest

  echo "==> bench gate: checkpoint-store COMMIT + restore shard sweeps (shards 1 and 4)"
  ( cd build/bench &&
    ./bench_redis_checkpoint --check &&
    ./bench_ckpt_policy --check &&
    ./bench_autoscale --check &&
    ./bench_micro --check &&
    ./bench_fig9_latency --check )
fi

if [ "$run_asan" = 1 ]; then
  # The fast sanitizer subset covers the suites that exercise teardown
  # while callbacks are still scheduled (chaos crash/respawn, FGM fluid
  # migration, capture-window retries) — the lifetimes rill_lint's R6
  # reasons about statically get checked dynamically here without paying
  # for the full suite under instrumentation — plus sim::Callback and its
  # users (Engine, Network), which construct captures with placement-new
  # and destroy them by hand, plus the store tier (Store, ShardedStore),
  # whose scatter-gather keeps per-request state alive in callbacks until
  # the last shard answers.
  echo "==> asan: configure + build + fast chaos/FGM/callback subset"
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan -j "$jobs" \
    -R 'Chaos|CaptureWindow|Fgm|StatePartition|ExtractPartition|Checkpoint|Callback|Engine|Network|Store|Sharded|EmptyRequestRule'
fi

echo "==> ci.sh: all requested suites passed"
