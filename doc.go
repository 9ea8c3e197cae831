// Package repro is a from-scratch Go reproduction of Xiao Yang's 2011
// dissertation "Error correction and clustering algorithms for next
// generation sequencing": the Reptile short-read error corrector
// (Chapter 2), the REDEEM repeat-aware EM error detector/corrector
// (Chapter 3), and the CLOSET MapReduce metagenomic read clusterer
// (Chapter 4), together with every substrate they rely on — dataset
// simulators, a read mapper, the SHREC baseline, and an in-process
// MapReduce engine. SHREC is the comparison column of Tables 2.3 and 3.4,
// not an engine: the benchmarks call internal/shrec directly, and the
// repro command and the daemon serve Reptile and REDEEM only.
//
// The root package holds the benchmark harness: one Benchmark per table and
// figure of the dissertation's evaluation chapters (see EXPERIMENTS.md for
// the index and the paper-vs-measured record). Library code lives under
// internal/ (internal/engine is the one door to the correctors), the repro
// command and two development tools under cmd/, and runnable walkthroughs
// under examples/.
package repro
