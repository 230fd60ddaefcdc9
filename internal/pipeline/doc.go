// Package pipeline holds the two primitives the stage-graph executor
// (internal/stagegraph) builds the paper's Table II software pipeline from:
//
//   - Barrier, a reusable, abortable cyclic barrier — the Go analogue of
//     the paper's #pragma omp barrier between pipeline steps;
//   - Partition and PartitionBlocks, which split a step's work items (or
//     cacheline-sized blocks of them) evenly among the workers of one role.
//
// The schedule itself — which load, compute and store runs at which step,
// on which buffer half — lives in stagegraph.BuildSchedule.
package pipeline
