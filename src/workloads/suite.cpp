#include "drbw/workloads/suite.hpp"

#include <algorithm>

#include "drbw/util/strings.hpp"

namespace drbw::workloads {

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

ArrayUse use_seq(std::string site, double w, bool write = false) {
  ArrayUse u;
  u.site = std::move(site);
  u.weight = w;
  u.pattern = sim::Pattern::kSequential;
  u.write = write;
  return u;
}

ArrayUse use_rand(std::string site, double w) {
  ArrayUse u;
  u.site = std::move(site);
  u.weight = w;
  u.pattern = sim::Pattern::kRandom;
  return u;
}

ArrayUse use_strided(std::string site, double w, std::uint32_t stride) {
  ArrayUse u;
  u.site = std::move(site);
  u.weight = w;
  u.pattern = sim::Pattern::kStrided;
  u.stride_bytes = stride;
  return u;
}

PhaseSpec single_phase(std::vector<ArrayUse> uses, std::string name = "main") {
  PhaseSpec p;
  p.name = std::move(name);
  p.uses = std::move(uses);
  return p;
}

}  // namespace

// ---------------------------------------------------------------- PARSEC --

ProxySpec swaptions_spec() {
  // Monte-Carlo pricing: each thread simulates its own swaptions over a
  // private HJM path matrix — compute-bound, parallel-initialized.
  ProxySpec s;
  s.name = "swaptions";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.25}, {"simMedium", 0.5}, {"simLarge", 1.0},
              {"native", 2.0}};
  s.master_alloc = false;
  s.compute_cpa = 5.0;
  s.base_accesses = 20'000'000;
  s.arrays = {{"HJM_Securities.cpp:70 ppdHJMPath", 24 * kMiB}};
  s.phases = {single_phase({use_seq("HJM_Securities.cpp:70 ppdHJMPath", 1.0)},
                           "simulate")};
  return s;
}

ProxySpec blackscholes_spec() {
  // Option pricing sweep: big parallel-initialized buffer streamed locally.
  // `buffer` carries the highest CF in the paper's §VIII-G study — lots of
  // consumption, no contention.
  ProxySpec s;
  s.name = "blackscholes";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.2}, {"simMedium", 0.5}, {"simLarge", 1.0},
              {"native", 2.5}};
  s.master_alloc = false;
  s.compute_cpa = 2.5;
  s.base_accesses = 30'000'000;
  s.arrays = {{"blackscholes.c:310 buffer", 128 * kMiB},
              {"blackscholes.c:330 prices", 48 * kMiB}};
  s.phases = {single_phase({use_seq("blackscholes.c:310 buffer", 0.75),
                            use_seq("blackscholes.c:330 prices", 0.25, true)},
                           "price")};
  return s;
}

ProxySpec bodytrack_spec() {
  // Particle filter: a small shared image model plus per-thread particles.
  ProxySpec s;
  s.name = "bodytrack";
  s.suite = "PARSEC";
  s.inputs = {{"simLarge", 1.0}, {"native", 2.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.0;
  s.base_accesses = 24'000'000;
  s.arrays = {{"TrackingModel.cpp:184 mImage", 256 * 1024, ArrayRole::kShared},
              {"ParticleFilter.h:48 particles", 8 * kMiB}};
  s.phases = {single_phase({use_rand("TrackingModel.cpp:184 mImage", 0.15),
                            use_seq("ParticleFilter.h:48 particles", 0.85)},
                           "track")};
  return s;
}

ProxySpec freqmine_spec() {
  // FP-growth: each thread mines its own subtree pool.
  ProxySpec s;
  s.name = "freqmine";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.25}, {"simMedium", 0.5}, {"simLarge", 1.0},
              {"native", 2.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.0;
  s.base_accesses = 24'000'000;
  s.arrays = {{"fp_tree.cpp:211 fp_node_pool", 96 * kMiB},
              {"fp_tree.cpp:230 header_table", 16 * kMiB}};
  s.phases = {single_phase({use_rand("fp_tree.cpp:211 fp_node_pool", 0.8),
                            use_seq("fp_tree.cpp:230 header_table", 0.2)},
                           "mine")};
  return s;
}

ProxySpec ferret_spec() {
  // Similarity-search pipeline: private image chunks + a small shared index.
  ProxySpec s;
  s.name = "ferret";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.25}, {"simMedium", 0.5}, {"simLarge", 1.0},
              {"native", 2.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.5;
  s.base_accesses = 24'000'000;
  s.arrays = {{"ferret-pipeline.c:88 image_pool", 8 * kMiB},
              {"lsh_index.c:132 hash_tables", 256 * 1024, ArrayRole::kShared}};
  s.phases = {single_phase({use_seq("ferret-pipeline.c:88 image_pool", 0.85),
                            use_rand("lsh_index.c:132 hash_tables", 0.15)},
                           "query")};
  return s;
}

ProxySpec fluidanimate_spec() {
  // SPH fluid: co-located cell grid plus a modest boundary-cell structure
  // touched by every thread.  The boundary traffic is spread evenly by
  // parallel first-touch, so interleaving cannot improve it — but at the
  // heaviest configurations its latency rises enough to trip the detector
  // (the paper records 4 false positives here, Table V).
  ProxySpec s;
  s.name = "fluidanimate";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.15}, {"simMedium", 0.3}, {"simLarge", 0.6},
              {"native", 1.2}};
  s.master_alloc = false;
  s.compute_cpa = 3.2;
  s.base_accesses = 28'000'000;
  s.arrays = {{"pthreads.cpp:134 cells", 96 * kMiB},
              {"pthreads.cpp:158 border_cells", 16 * kMiB, ArrayRole::kShared}};
  s.phases = {single_phase({use_seq("pthreads.cpp:134 cells", 0.975),
                            use_rand("pthreads.cpp:158 border_cells", 0.025)},
                           "step")};
  return s;
}

ProxySpec x264_spec() {
  // Video encoding: strided motion-estimation walks over private frames.
  ProxySpec s;
  s.name = "x264";
  s.suite = "PARSEC";
  s.inputs = {{"simSmall", 0.25}, {"simMedium", 0.5}, {"simLarge", 1.0},
              {"native", 2.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.0;
  s.base_accesses = 26'000'000;
  s.arrays = {{"encoder.c:501 frames", 120 * kMiB}};
  s.phases = {single_phase({use_strided("encoder.c:501 frames", 1.0, 16)},
                           "encode")};
  return s;
}

ProxySpec streamcluster_spec() {
  // Online clustering: the master thread allocates `block` (all input
  // points) on node 0, then every thread reads it randomly and repeatedly —
  // the canonical remote-bandwidth-contention victim (§VIII-C).
  ProxySpec s;
  s.name = "streamcluster";
  s.suite = "PARSEC";
  s.inputs = {{"simLarge", 0.5}, {"native", 1.0}};
  s.master_alloc = true;
  s.compute_cpa = 1.2;
  s.base_accesses = 20'000'000;
  s.arrays = {{"streamcluster.cpp:1739 block", 96 * kMiB, ArrayRole::kShared},
              {"streamcluster.cpp:985 point.p", 32 * kMiB, ArrayRole::kShared},
              {"streamcluster.cpp:1810 work_mem", 8 * kMiB}};
  s.phases = {single_phase({use_rand("streamcluster.cpp:1739 block", 0.85),
                            use_rand("streamcluster.cpp:985 point.p", 0.08),
                            use_seq("streamcluster.cpp:1810 work_mem", 0.07)},
                           "cluster")};
  s.replicate_sites = {"streamcluster.cpp:1739 block"};
  return s;
}

// --------------------------------------------------------------- Sequoia --

ProxySpec irsmk_spec() {
  // Implicit radiation solver kernel: 27-point stencil sweeping 29 equal
  // arrays (b, k, and 27 coefficient arrays), all master-allocated (§VIII-B).
  ProxySpec s;
  s.name = "irsmk";
  s.suite = "Sequoia";
  s.inputs = {{"small", 0.15}, {"medium", 0.5}, {"large", 1.6}};
  s.master_alloc = true;
  s.compute_cpa = 1.3;
  s.base_accesses = 30'000'000;
  PhaseSpec sweep;
  sweep.name = "sweep";
  const char* named[] = {"b", "k"};
  for (int i = 0; i < 29; ++i) {
    const std::string site =
        i < 2 ? std::string("irsmk.c:21") + std::to_string(4 + i) + " " + named[i]
              : "irsmk.c:" + std::to_string(228 + i) + " a" + std::to_string(i - 2);
    s.arrays.push_back(ArrayDecl{site, 12 * kMiB});
    sweep.uses.push_back(use_seq(site, 1.0 / 29.0));
  }
  s.phases = {std::move(sweep)};
  return s;
}

ProxySpec amg2006_spec() {
  // Algebraic multigrid: serial initialization, matrix setup, and the
  // bandwidth-hungry solve over the coarse-grid product matrices.  The four
  // arrays below are the ones Fig. 4(a) ranks by CF.
  ProxySpec s;
  s.name = "amg2006";
  s.suite = "Sequoia";
  s.inputs = {{"30x30x30", 1.0}};
  s.master_alloc = true;
  s.compute_cpa = 1.3;
  s.base_accesses = 34'000'000;
  s.arrays = {{"par_csr_matrix.c:998 RAP_diag_j", 96 * kMiB},
              {"par_csr_matrix.c:845 diag_j", 64 * kMiB},
              {"par_csr_matrix.c:846 diag_data", 64 * kMiB},
              {"par_csr_matrix.c:1010 RAP_diag_data", 48 * kMiB},
              {"hypre_memory.c:120 init_grid", 48 * kMiB}};
  // Serial problem construction on the master thread: its own grid data is
  // deliberately NOT a co-locate target, so whole-program interleaving
  // slows this phase down (remote writes from one thread) while DR-BW's
  // targeted co-location leaves it untouched — Fig. 5's key contrast.
  PhaseSpec init;
  init.name = "init";
  init.accesses_fraction = 0.08;
  init.master_only = true;
  init.uses = {use_seq("hypre_memory.c:120 init_grid", 1.0, true)};
  PhaseSpec setup;
  setup.name = "setup";
  setup.accesses_fraction = 0.24;
  setup.uses = {use_seq("par_csr_matrix.c:845 diag_j", 0.30, true),
                use_seq("par_csr_matrix.c:846 diag_data", 0.28, true),
                use_seq("par_csr_matrix.c:998 RAP_diag_j", 0.24, true),
                use_seq("hypre_memory.c:120 init_grid", 0.18)};
  PhaseSpec solve;
  solve.name = "solve";
  solve.accesses_fraction = 0.68;
  solve.uses = {use_seq("par_csr_matrix.c:998 RAP_diag_j", 0.40),
                use_seq("par_csr_matrix.c:845 diag_j", 0.22),
                use_seq("par_csr_matrix.c:846 diag_data", 0.20),
                use_seq("par_csr_matrix.c:1010 RAP_diag_data", 0.18)};
  s.phases = {std::move(init), std::move(setup), std::move(solve)};
  s.colocate_sites = {"par_csr_matrix.c:998 RAP_diag_j",
                      "par_csr_matrix.c:845 diag_j",
                      "par_csr_matrix.c:846 diag_data",
                      "par_csr_matrix.c:1010 RAP_diag_data"};
  return s;
}

// --------------------------------------------------------------- Rodinia --

ProxySpec nw_spec() {
  // Needleman-Wunsch: reference and input_itemsets matrices allocated by
  // the master thread, walked in anti-diagonal wavefronts (§VIII-E).
  ProxySpec s;
  s.name = "nw";
  s.suite = "Rodinia";
  s.inputs = {{"2048", 0.25}, {"4096", 1.0}, {"8192", 4.0}};
  s.master_alloc = true;
  s.compute_cpa = 2.2;
  s.base_accesses = 26'000'000;
  s.arrays = {{"needle.cpp:98 reference", 64 * kMiB},
              {"needle.cpp:92 input_itemsets", 64 * kMiB},
              {"needle.cpp:110 temp", 8 * kMiB}};
  s.phases = {single_phase({use_strided("needle.cpp:98 reference", 0.45, 16),
                            use_strided("needle.cpp:92 input_itemsets", 0.45, 16),
                            use_seq("needle.cpp:110 temp", 0.10, true)},
                           "wavefront")};
  s.colocate_sites = {"needle.cpp:98 reference", "needle.cpp:92 input_itemsets"};
  return s;
}

// ------------------------------------------------------------------- NPB --

ProxySpec bt_spec() {
  ProxySpec s;
  s.name = "bt";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 3.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.8;  // block-tridiagonal solves are flop-heavy
  s.base_accesses = 30'000'000;
  s.arrays = {{"bt.f:180 u", 120 * kMiB}};
  s.phases = {single_phase({use_seq("bt.f:180 u", 1.0)}, "adi")};
  return s;
}

ProxySpec cg_spec() {
  ProxySpec s;
  s.name = "cg";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 3.2}};
  s.master_alloc = false;
  s.compute_cpa = 1.8;
  s.base_accesses = 28'000'000;
  s.arrays = {{"cg.f:115 colidx", 80 * kMiB}, {"cg.f:120 a", 80 * kMiB}};
  s.phases = {single_phase({use_rand("cg.f:115 colidx", 0.5),
                            use_seq("cg.f:120 a", 0.5)},
                           "spmv")};
  return s;
}

ProxySpec dc_spec() {
  ProxySpec s;
  s.name = "dc";
  s.suite = "NPB";
  s.inputs = {{"A", 0.5}, {"B", 1.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.2;
  s.base_accesses = 20'000'000;
  s.arrays = {{"adc.c:402 tuples", 48 * kMiB}};
  s.phases = {single_phase({use_seq("adc.c:402 tuples", 1.0)}, "cube")};
  return s;
}

ProxySpec ep_spec() {
  ProxySpec s;
  s.name = "ep";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 3.0}};
  s.master_alloc = false;
  s.compute_cpa = 8.0;  // embarrassingly parallel RNG: almost no memory
  s.base_accesses = 18'000'000;
  s.arrays = {{"ep.f:165 x", 4 * kMiB}};
  s.phases = {single_phase({use_seq("ep.f:165 x", 1.0)}, "gaussian")};
  return s;
}

ProxySpec ft_spec() {
  // 3-D FFT: local butterflies plus a balanced all-to-all transpose.  The
  // transpose traffic is symmetric across every channel, so interleaving
  // cannot relieve it — at class C under the heaviest configurations its
  // latency alone trips the detector (2 false positives in Table V).
  ProxySpec s;
  s.name = "ft";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 2.5}};
  s.master_alloc = false;
  s.compute_cpa = 2.0;
  s.base_accesses = 30'000'000;
  s.arrays = {{"ft.f:140 u0", 160 * kMiB}};
  PhaseSpec evolve;
  evolve.name = "evolve";
  evolve.accesses_fraction = 0.85;
  evolve.uses = {use_seq("ft.f:140 u0", 1.0)};
  PhaseSpec transpose;
  transpose.name = "transpose";
  transpose.accesses_fraction = 0.15;
  transpose.compute_cpa = 8.0;
  ArrayUse across = use_seq("ft.f:140 u0", 1.0);
  across.across = true;
  transpose.uses = {across};
  s.phases = {std::move(evolve), std::move(transpose)};
  return s;
}

ProxySpec is_spec() {
  ProxySpec s;
  s.name = "is";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 3.0}};
  s.master_alloc = false;
  s.compute_cpa = 1.6;
  s.base_accesses = 24'000'000;
  s.arrays = {{"is.c:310 key_array", 64 * kMiB}, {"is.c:312 rank", 16 * kMiB}};
  s.phases = {single_phase({use_rand("is.c:310 key_array", 0.6),
                            use_seq("is.c:312 rank", 0.4, true)},
                           "rank")};
  return s;
}

ProxySpec lu_spec() {
  ProxySpec s;
  s.name = "lu";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 3.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.6;
  s.base_accesses = 30'000'000;
  s.arrays = {{"lu.f:201 rsd", 140 * kMiB}};
  s.phases = {single_phase({use_seq("lu.f:201 rsd", 1.0)}, "ssor")};
  return s;
}

ProxySpec mg_spec() {
  ProxySpec s;
  s.name = "mg";
  s.suite = "NPB";
  s.inputs = {{"A", 0.25}, {"B", 1.0}, {"C", 3.0}};
  s.master_alloc = false;
  s.compute_cpa = 2.4;
  s.base_accesses = 30'000'000;
  s.arrays = {{"mg.f:172 u", 100 * kMiB}, {"mg.f:173 r", 100 * kMiB}};
  s.phases = {single_phase({use_seq("mg.f:172 u", 0.5),
                            use_seq("mg.f:173 r", 0.5, true)},
                           "vcycle")};
  return s;
}

ProxySpec ua_spec() {
  // Unstructured adaptive mesh: besides the partitioned sweeps, every
  // thread chases irregular element neighbours across the whole mesh.  The
  // traffic is evenly spread (first-touch), so interleave gains nothing,
  // but the diffuse all-to-all load elevates remote latencies enough to
  // trip the detector in 9 of 24 cases (Table V's largest FP group).
  ProxySpec s;
  s.name = "ua";
  s.suite = "NPB";
  s.inputs = {{"A", 0.3}, {"B", 1.0}, {"C", 2.4}};
  s.master_alloc = false;
  s.compute_cpa = 1.6;
  s.base_accesses = 28'000'000;
  s.arrays = {{"ua.f:300 mesh", 140 * kMiB}};
  ArrayUse irregular = use_rand("ua.f:300 mesh", 0.4);
  irregular.across = true;
  s.phases = {single_phase({use_seq("ua.f:300 mesh", 0.6), irregular},
                           "adapt")};
  return s;
}

ProxySpec sp_spec() {
  // Scalar pentadiagonal solver: every field lives in statically allocated
  // global arrays — real contention, but nothing for the heap tracker to
  // attribute (§VIII-F).
  ProxySpec s;
  s.name = "sp";
  s.suite = "NPB";
  s.inputs = {{"A", 0.05}, {"B", 0.25}, {"C", 1.6}};
  s.master_alloc = true;
  s.compute_cpa = 2.6;
  s.base_accesses = 30'000'000;
  s.arrays = {{"sp.f: static fields", 200 * kMiB, ArrayRole::kStatic},
              {"sp.f:88 work_arrays", 12 * kMiB}};
  s.phases = {single_phase({use_seq("sp.f: static fields", 0.92),
                            use_seq("sp.f:88 work_arrays", 0.08)},
                           "adi")};
  return s;
}

// ---------------------------------------------------------------- LULESH --

ProxySpec lulesh_spec() {
  // Sedov blast hydrodynamics: dozens of equally sized node/element arrays
  // allocated back-to-back (lulesh.cc:2158-2238), plus two static tables
  // the tool cannot trace (§VIII-D).
  ProxySpec s;
  s.name = "lulesh";
  s.suite = "LLNL";
  s.inputs = {{"large", 1.0}};
  s.master_alloc = true;
  s.compute_cpa = 6.0;  // hydro kernels are flop-heavy per element touched
  s.base_accesses = 34'000'000;
  PhaseSpec step;
  step.name = "lagrange-step";
  const double heap_weight = 0.945;
  constexpr int kArrays = 8;  // grouped: 5 allocation sites each
  for (int i = 0; i < kArrays; ++i) {
    const std::string site =
        "lulesh.cc:" + std::to_string(2158 + i * 10) + " m_arrays" +
        std::to_string(i);
    s.arrays.push_back(ArrayDecl{site, 48 * kMiB});
    step.uses.push_back(use_seq(site, heap_weight / kArrays));
    s.colocate_sites.push_back(site);
  }
  s.arrays.push_back(ArrayDecl{"lulesh.cc:119 static matElemlist", 16 * kMiB,
                               ArrayRole::kStatic});
  s.arrays.push_back(ArrayDecl{"lulesh.cc:127 static cost_table", 2 * kMiB,
                               ArrayRole::kStatic});
  step.uses.push_back(use_seq("lulesh.cc:119 static matElemlist", 0.04));
  step.uses.push_back(use_rand("lulesh.cc:127 static cost_table", 0.015));
  s.phases = {std::move(step)};
  return s;
}

// ----------------------------------------------------------------- suite --

std::vector<std::unique_ptr<Benchmark>> make_table5_suite() {
  std::vector<std::unique_ptr<Benchmark>> suite;
  using Factory = ProxySpec (*)();
  for (const Factory factory :
       {&swaptions_spec, &blackscholes_spec, &bodytrack_spec, &freqmine_spec,
        &ferret_spec, &fluidanimate_spec, &x264_spec, &streamcluster_spec,
        &irsmk_spec, &amg2006_spec, &nw_spec, &bt_spec, &cg_spec, &dc_spec,
        &ep_spec, &ft_spec, &is_spec, &lu_spec, &mg_spec, &ua_spec, &sp_spec}) {
    suite.push_back(std::make_unique<ProxyBenchmark>(factory()));
  }
  return suite;
}

std::unique_ptr<Benchmark> make_suite_benchmark(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "lulesh") {
    return std::make_unique<ProxyBenchmark>(lulesh_spec());
  }
  for (auto& b : make_table5_suite()) {
    if (to_lower(b->name()) == lower) return std::move(b);
  }
  throw Error("unknown benchmark '" + name + "'");
}

}  // namespace drbw::workloads
