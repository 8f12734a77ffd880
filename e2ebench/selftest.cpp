/// \file selftest.cpp
/// `e2e_bench selftest`: the benchmark's own test.  On a small web graph it
/// shows that the program's real outputs pass every check, that the
/// oracles written in checks.cpp agree with src/ref where both exist, and
/// that each check fails on a corrupted result.  Exit status 0 = all held.

#include <iostream>
#include <string>
#include <vector>

#include "analytics/harmonic.hpp"
#include "analytics/kcore.hpp"
#include "analytics/label_prop.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/scc_decompose.hpp"
#include "analytics/wcc.hpp"
#include "checks.hpp"
#include "dgraph/builder.hpp"
#include "gen/webgraph.hpp"
#include "parcomm/comm.hpp"
#include "ref/ref_analytics.hpp"

namespace {

using namespace hpcgraph;
using e2e::Expected;
using e2e::Outputs;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << "\n";
  if (!cond) ++g_failures;
}

/// The check of `op` must reject `got` (a corrupted copy of a passing one).
void expect_rejected(e2e::Op op, const Expected& want, const Outputs& got,
                     const std::string& corruption) {
  const std::string err = e2e::check_op(op, want, got);
  expect(!err.empty(), std::string(e2e::kOpNames[op]) + " rejects " +
                           corruption + (err.empty() ? "" : ": " + err));
}

Outputs run_program(const gen::EdgeList& el, int ranks) {
  Outputs out;
  parcomm::CommWorld world(ranks);
  std::vector<std::uint64_t> sums(3 * static_cast<std::size_t>(ranks));
  world.run([&](parcomm::Communicator& comm) {
    const auto g = dgraph::Builder::from_edge_list(
        comm, el, dgraph::PartitionKind::kVertexBlock);
    const std::size_t r = static_cast<std::size_t>(comm.rank());
    sums[3 * r] = g.n_loc();
    sums[3 * r + 1] = g.m_out();
    sums[3 * r + 2] = g.m_in();

    analytics::PageRankOptions pro;
    pro.max_iterations = e2e::kPageRankIters;
    pro.damping = e2e::kDamping;
    const auto pr = analytics::pagerank(g, comm, pro);
    analytics::LabelPropOptions lpo;
    lpo.iterations = e2e::kLabelPropIters;
    lpo.tie_seed = e2e::kTieSeed;
    const auto lp = analytics::label_propagation(g, comm, lpo);
    const auto wcc = analytics::wcc(g, comm);
    const auto scc = analytics::scc_decompose(g, comm);
    analytics::KCoreOptions ko;
    ko.max_i = e2e::kKCoreMaxI;
    const auto kc = analytics::kcore_approx(g, comm, ko);
    const auto hc = analytics::harmonic_top_k(g, comm, e2e::kHarmonicK);

    using analytics::gather_global;
    const auto pr_all = gather_global<double>(g, comm, pr.scores);
    const auto lp_all = gather_global<std::uint64_t>(g, comm, lp.labels);
    const auto wcc_all = gather_global<gvid_t>(g, comm, wcc.comp);
    const auto scc_all = gather_global<gvid_t>(g, comm, scc.comp);
    const auto kc_all = gather_global<std::uint64_t>(g, comm, kc.bound);
    if (comm.rank() == 0) {
      out.pagerank = pr_all;
      out.labels = lp_all;
      out.wcc = wcc_all;
      out.scc = scc_all;
      out.scc_largest = scc.largest_size;
      out.kcore = kc_all;
      out.harmonic = hc;
    }
  });
  for (int r = 0; r < ranks; ++r) {
    out.n_loc_sum += sums[3 * r];
    out.m_out_sum += sums[3 * r + 1];
    out.m_in_sum += sums[3 * r + 2];
  }
  return out;
}

}  // namespace

int cmd_selftest() {
  gen::WebGraphParams wp;
  wp.n = 1 << 11;
  wp.avg_degree = 12;
  wp.seed = 7;
  const gen::EdgeList el = gen::webgraph(wp).graph;
  const ref::SeqGraph seq = ref::SeqGraph::from(el);
  const Expected want = Expected::compute(el);
  const Outputs good = run_program(el, 3);

  // The oracles written for the benchmark agree with src/ref.
  expect(e2e::label_prop_oracle(seq, e2e::kLabelPropIters, e2e::kTieSeed) ==
             ref::label_propagation(seq, e2e::kLabelPropIters, e2e::kTieSeed),
         "label_prop_oracle == ref::label_propagation");
  expect(e2e::coreness_oracle(seq) == ref::kcore_exact(seq),
         "coreness_oracle == ref::kcore_exact");

  // The real outputs pass every check.
  for (int op = 0; op < e2e::kNumOps; ++op) {
    const std::string err = e2e::check_op(static_cast<e2e::Op>(op), want, good);
    expect(err.empty(), std::string(e2e::kOpNames[op]) + " accepts the program's output" +
                            (err.empty() ? "" : ": " + err));
  }

  // Each check fails on a corrupted result.
  const gvid_t v = want.top_degree[0];  // a vertex with real neighbourhoods
  {
    Outputs o = good;
    --o.m_out_sum;
    expect_rejected(e2e::kSetup, want, o, "a dropped out-edge");
    o = good;
    --o.m_in_sum;
    expect_rejected(e2e::kSetup, want, o, "a dropped in-edge");
    o = good;
    ++o.n_loc_sum;
    expect_rejected(e2e::kSetup, want, o, "a vertex owned twice");
  }
  {
    Outputs o = good;
    o.pagerank[v] *= 1 + 1e-6;
    expect_rejected(e2e::kPageRank, want, o, "a perturbed score");
    // Scale reference and output alike: only the sum-to-one check can fail.
    Expected w2 = want;
    o = good;
    for (double& x : o.pagerank) x *= 1.001;
    for (double& x : w2.pagerank) x *= 1.001;
    expect_rejected(e2e::kPageRank, w2, o, "scores that sum to 1.001");
  }
  {
    Outputs o = good;
    o.labels[v] = o.labels[v] == 0 ? 1 : 0;
    expect_rejected(e2e::kLabelProp, want, o, "a flipped label");
  }
  {
    Outputs o = good;
    o.wcc[v] += 1;
    expect_rejected(e2e::kWcc, want, o, "a relabelled component");
  }
  {
    Outputs o = good;
    o.scc[v] += 1;
    expect_rejected(e2e::kScc, want, o, "a relabelled component");
    o = good;
    --o.scc_largest;
    expect_rejected(e2e::kScc, want, o, "a largest SCC one vertex short");
  }
  {
    Outputs o = good;
    o.kcore[v] *= 2;
    expect_rejected(e2e::kKCore, want, o, "a changed bound");
    // A reference that agrees with the output but undercuts the coreness:
    // only the >= coreness check can fail.
    Expected w2 = want;
    o = good;
    o.kcore[v] = w2.kcore_approx[v] = want.coreness[v] - 1;
    expect_rejected(e2e::kKCore, w2, o, "a bound below the coreness");
  }
  {
    Outputs o = good;
    o.harmonic[3].score *= 1 + 1e-6;
    expect_rejected(e2e::kHarmonic, want, o, "a perturbed score");
    o = good;
    gvid_t outsider = 0;
    while (std::find(want.top_degree.begin(), want.top_degree.end(),
                     outsider) != want.top_degree.end())
      ++outsider;
    o.harmonic.back().gid = outsider;
    expect_rejected(e2e::kHarmonic, want, o, "a candidate outside the top-k");
    o = good;
    std::swap(o.harmonic[0], o.harmonic[1]);
    expect(o.harmonic[0].score != o.harmonic[1].score,
           "harmonic: top two scores differ");
    expect_rejected(e2e::kHarmonic, want, o, "scores out of order");
  }
  {
    std::vector<parcomm::CommStats> ranks(2);
    ranks[0].bytes_remote = 80;
    ranks[0].bytes_self = 8;
    ranks[1].bytes_received = 88;
    expect(e2e::bytes_conserved(ranks), "conservation holds on balanced counts");
    ranks[1].bytes_received = 87;
    expect(!e2e::bytes_conserved(ranks), "conservation rejects a lost byte");
  }
  {
    Outputs o = good;
    o.labels[v] ^= 1;
    expect(!e2e::same_output(e2e::kLabelProp, good, o),
           "same_output rejects a pass that differs from the first");
  }

  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}
