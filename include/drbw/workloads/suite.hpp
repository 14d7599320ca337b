// The Table V evaluation suite: 21 proxy benchmarks from NPB, PARSEC,
// Rodinia, and Sequoia, plus LULESH (Table VII / Fig. 4c / Fig. 8).
//
// Each factory encodes the real code's published memory behaviour — the
// allocation discipline (master-thread vs parallel first-touch), the shared
// vs partitioned data objects with their rough footprints, the access
// patterns, and the per-element arithmetic intensity.  These are exactly
// the properties that determine whether a benchmark exhibits remote memory
// bandwidth contention; see DESIGN.md for the per-benchmark rationale.
#pragma once

#include <memory>
#include <vector>

#include "drbw/workloads/benchmark.hpp"

namespace drbw::workloads {

// --- PARSEC ---
ProxySpec swaptions_spec();      // compute-bound, private per-thread state
ProxySpec blackscholes_spec();   // streaming over parallel-initialized data
ProxySpec bodytrack_spec();      // small shared model, cache-resident
ProxySpec freqmine_spec();       // per-thread FP-tree walks
ProxySpec ferret_spec();         // pipeline with a small shared index
ProxySpec fluidanimate_spec();   // co-located grid + boundary exchange
ProxySpec x264_spec();           // strided frame streaming
ProxySpec streamcluster_spec();  // master-allocated `block` read by everyone

// --- Sequoia ---
ProxySpec irsmk_spec();          // 29 equal stencil arrays, master-allocated
ProxySpec amg2006_spec();        // init/setup/solve phases, 4 hot arrays

// --- Rodinia ---
ProxySpec nw_spec();             // reference + input_itemsets wavefront

// --- NPB ---
ProxySpec bt_spec();
ProxySpec cg_spec();
ProxySpec dc_spec();
ProxySpec ep_spec();
ProxySpec ft_spec();             // balanced all-to-all transpose phase
ProxySpec is_spec();
ProxySpec lu_spec();
ProxySpec mg_spec();
ProxySpec ua_spec();             // irregular shared mesh walks
ProxySpec sp_spec();             // statically allocated fields (untracked)

// --- LLNL LULESH ---
ProxySpec lulesh_spec();         // ~40 heap arrays + 2 static objects

/// The 21 benchmarks of Table V, in the paper's row order.
std::vector<std::unique_ptr<Benchmark>> make_table5_suite();

/// Look up any suite benchmark (including "lulesh") by lower-case name.
std::unique_ptr<Benchmark> make_suite_benchmark(const std::string& name);

}  // namespace drbw::workloads
