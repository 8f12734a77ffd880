#pragma once
/// \file checks.hpp
/// Output checks of the end-to-end benchmark.
///
/// Every check compares what the distributed program returned with a value
/// computed independently from the edge file: the sequential references in
/// src/ref, plus three oracles written here (a sort-and-count Label
/// Propagation, a bucket-peel exact coreness and a degree sort for the
/// harmonic candidates).  ref::label_propagation shares
/// util/label_counter.hpp with the program, so it is no oracle for Label
/// Propagation; ref::kcore_exact is quadratic in n.  e2e_bench's `selftest`
/// shows each check failing on a corrupted result.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analytics/harmonic.hpp"
#include "gen/edge_list.hpp"
#include "parcomm/comm_stats.hpp"
#include "ref/seq_graph.hpp"

namespace e2e {

using hpcgraph::gvid_t;

/// The operations of one pipeline pass, in execution order.
enum Op { kSetup, kPageRank, kLabelProp, kWcc, kScc, kKCore, kHarmonic, kNumOps };
inline constexpr std::array<const char*, kNumOps> kOpNames = {
    "setup", "pagerank", "labelprop", "wcc", "scc", "kcore", "harmonic"};

/// Analytic parameters shared by the program calls and the references.
inline constexpr int kPageRankIters = 10;
inline constexpr double kDamping = 0.85;
inline constexpr int kLabelPropIters = 10;
inline constexpr std::uint64_t kTieSeed = 0;
inline constexpr unsigned kKCoreMaxI = 27;
inline constexpr std::size_t kHarmonicK = 64;

/// PageRank and harmonic scores: |got - want| <= kAbsTol + kRelTol * |want|.
/// The distributed sums run in another order than the sequential reference,
/// which moves the last few bits only.
inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsTol = 1e-15;
/// PageRank scores must sum to 1 within this.
inline constexpr double kSumTol = 1e-9;

/// One pass's outputs, gathered into global-id order.
struct Outputs {
  std::uint64_t n_loc_sum = 0;  ///< Σ over ranks of owned vertices
  std::uint64_t m_out_sum = 0;  ///< Σ over ranks of out-CSR edges
  std::uint64_t m_in_sum = 0;   ///< Σ over ranks of in-CSR edges
  std::vector<double> pagerank;
  std::vector<std::uint64_t> labels;
  std::vector<gvid_t> wcc;
  std::vector<gvid_t> scc;  ///< SCC label = min global id of the SCC
  std::uint64_t scc_largest = 0;
  std::vector<std::uint64_t> kcore;
  std::vector<hpcgraph::analytics::ScoredVertex> harmonic;
};

/// Reference results for one edge file.
struct Expected {
  std::uint64_t n = 0, m = 0;
  std::vector<double> pagerank;
  std::vector<std::uint64_t> labels;
  std::vector<gvid_t> wcc;
  std::vector<gvid_t> scc;
  std::uint64_t scc_largest = 0;
  std::vector<std::uint64_t> kcore_approx;
  std::vector<std::uint64_t> coreness;
  std::vector<gvid_t> top_degree;  ///< the harmonic candidates, degree order
  std::vector<double> harmonic;    ///< reference HC of each top_degree vertex

  static Expected compute(const hpcgraph::gen::EdgeList& el);
};

/// "" when `got`'s result of `op` passes its check against `want`, else a
/// one-line reason.
std::string check_op(Op op, const Expected& want, const Outputs& got);

/// Exact equality of one operation's outputs (later passes vs the first).
bool same_output(Op op, const Outputs& a, const Outputs& b);

/// The parcomm conservation law over one operation's per-rank counters:
/// Σ bytes_received == Σ (bytes_remote + bytes_self).
bool bytes_conserved(const std::vector<hpcgraph::parcomm::CommStats>& ranks);

// ---- Independent oracles (exposed for the self-test). ----

/// Synchronous Label Propagation over the undirected multigraph view by
/// sorting each neighbourhood's labels and counting runs.  Tie rule of
/// analytics::label_propagation: keep the current label when its count is
/// maximal, else take the maximal-count label with the largest
/// mix64(label ^ (tie_seed + iteration)).
std::vector<std::uint64_t> label_prop_oracle(const hpcgraph::ref::SeqGraph& g,
                                             int iterations,
                                             std::uint64_t tie_seed);

/// Exact coreness (total degree: in + out edge instances, so a self loop
/// counts twice, as in ref::kcore_exact) by Batagelj-Zaversnik bucket
/// peeling.
std::vector<std::uint64_t> coreness_oracle(const hpcgraph::ref::SeqGraph& g);

/// The k vertices of highest total degree, ties to the smaller id.
std::vector<gvid_t> top_degree_oracle(const hpcgraph::ref::SeqGraph& g,
                                      std::size_t k);

}  // namespace e2e
