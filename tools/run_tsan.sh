#!/usr/bin/env bash
# Build the test suite under ThreadSanitizer and run the parallel-backend
# and sparse-backend suites with a 4-thread pool. Catches data races in the
# ThreadPool, the threaded tensor kernels (dense and CSR SpMM), the tape's
# parallel backward loops, and the serving stack (EventLoop post/timer
# ordering, ForecastServer coalescing and the loop-owned snapshot swap under
# concurrent clients + a publishing retrainer — ServeSnapshot.SwapUnderLoad
# is the DESIGN.md §14 zero-pause-publish gate; the §15 fault-tolerance
# gates ride the same Serve* filter: ServeOverload.OverloadStorm* drives 4
# client threads against a slow, fault-injecting engine through bounded
# admission + deadlines + the circuit breaker, and
# ServeShutdown.RacyDrainNeverBreaksPromises races drain() against live
# clients — both must show zero races, zero broken promises, zero hangs).
# OnlineRobust* and ReadingBuffer* drive ForecastServer ingest with
# corrupt readings, frozen registers and feed gaps (the loop thread demotes,
# client threads sanitize and count).
# The §16 parallel-execution gates ride along too: ExecPool* exercises the
# worker pool's per-worker FIFO queues and drain-on-destruction, and
# ServePool.StormRacesWorkersBreakerPublishAndDrain races 3 pool workers
# against 4 clients, a poisoned publisher, the circuit breaker, and drain()
# with exact counter accounting. The §13 k-NN graph builders ride along as
# well (DtwBounds*, KnnSeriesGraph*, SpatialKnn*, CsrGraphPipeline*): their
# pool workers share the sorted, read-only series and coordinate arrays
# built once per call. ParallelTrainer* and ClusteredTrainer* run
# train_model on several batch workers (per-worker arena tapes and gradient
# sinks reduced in worker order — the path every perfbench workload trains
# on); ParallelTrainer.ValidationOnCrewMatchesSerialBitwise also races the
# validation forecasts those workers make after each epoch (one tape each,
# shared read-only parameters). RecurrentImputationTest* runs RIHGCN and the
# -I baselines through the shared Eq. 3–7 recipe.
#
# Usage: tools/run_tsan.sh [extra gtest filter]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir=build-tsan
cmake -B "${build_dir}" -S . -DRIHGCN_SANITIZE=thread >/dev/null
cmake --build "${build_dir}" -j --target rihgcn_tests

filter="${1:-KernelConformance*:ThreadPool*:MatmulParallel*:ParallelDeterminism*:*ParallelBackendGrad*:CsrStructure*:CsrSpmm*:*TrainingBitwiseIdenticalAcrossKernelThreads*:TapeArena*:FusedCell*:NumericalGuard*:TrainCheckpoint*:FaultInjection*:OnlineRobust*:ReadingBuffer*:RobustPrimitives*:Engine*:EventLoop*:Serve*:ExecPool*:DtwBounds*:KnnSeriesGraph*:SpatialKnn*:CsrGraphPipeline*:ParallelTrainer*:ClusteredTrainer*:*RecurrentImputationTest*}"

# tools/tsan.supp: exception_ptr refcounts live in uninstrumented
# libstdc++.so; see the file for why that one frame is a false positive.
TSAN_OPTIONS="halt_on_error=1 suppressions=${repo_root}/tools/tsan.supp" \
RIHGCN_THREADS=4 \
  "${build_dir}/tests/rihgcn_tests" --gtest_filter="${filter}"
