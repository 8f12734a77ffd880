#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ref/ref_analytics.hpp"

namespace e2e {

using hpcgraph::ref::SeqGraph;

namespace {

/// SplitMix64 finalizer, written out here so the Label Propagation oracle
/// shares no code with the program it checks.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool close(double got, double want) {
  return std::fabs(got - want) <= kAbsTol + kRelTol * std::fabs(want);
}

template <typename T>
std::string first_mismatch(const char* what, const std::vector<T>& got,
                           const std::vector<T>& want) {
  if (got.size() != want.size()) {
    std::ostringstream os;
    os << what << ": " << got.size() << " values, want " << want.size();
    return os.str();
  }
  for (std::size_t v = 0; v < got.size(); ++v)
    if (!(got[v] == want[v])) {
      std::ostringstream os;
      os << what << ": vertex " << v << " is " << +got[v] << ", want "
         << +want[v];
      return os.str();
    }
  return {};
}

std::string check_setup(const Expected& w, const Outputs& o) {
  std::ostringstream os;
  if (o.n_loc_sum != w.n)
    os << "owned vertices sum to " << o.n_loc_sum << ", want " << w.n;
  else if (o.m_out_sum != w.m)
    os << "out-edges sum to " << o.m_out_sum << ", want " << w.m;
  else if (o.m_in_sum != w.m)
    os << "in-edges sum to " << o.m_in_sum << ", want " << w.m;
  return os.str();
}

std::string check_pagerank(const Expected& w, const Outputs& o) {
  if (o.pagerank.size() != w.pagerank.size())
    return first_mismatch("pagerank", o.pagerank, w.pagerank);
  double sum = 0;
  for (std::size_t v = 0; v < o.pagerank.size(); ++v) {
    sum += o.pagerank[v];
    if (!close(o.pagerank[v], w.pagerank[v])) {
      std::ostringstream os;
      os.precision(17);
      os << "pagerank: vertex " << v << " scores " << o.pagerank[v]
         << ", reference " << w.pagerank[v];
      return os.str();
    }
  }
  if (!(std::fabs(sum - 1.0) <= kSumTol)) {
    std::ostringstream os;
    os.precision(17);
    os << "pagerank: scores sum to " << sum;
    return os.str();
  }
  return {};
}

std::string check_scc(const Expected& w, const Outputs& o) {
  std::string err = first_mismatch("scc", o.scc, w.scc);
  if (err.empty() && o.scc_largest != w.scc_largest) {
    std::ostringstream os;
    os << "scc: largest has " << o.scc_largest << " vertices, want "
       << w.scc_largest;
    err = os.str();
  }
  return err;
}

std::string check_kcore(const Expected& w, const Outputs& o) {
  std::string err = first_mismatch("kcore bound", o.kcore, w.kcore_approx);
  if (!err.empty()) return err;
  for (std::size_t v = 0; v < o.kcore.size(); ++v)
    if (o.kcore[v] < w.coreness[v]) {
      std::ostringstream os;
      os << "kcore: bound " << o.kcore[v] << " of vertex " << v
         << " is below its coreness " << w.coreness[v];
      return os.str();
    }
  return {};
}

std::string check_harmonic(const Expected& w, const Outputs& o) {
  if (o.harmonic.size() != w.top_degree.size()) {
    std::ostringstream os;
    os << "harmonic: " << o.harmonic.size() << " scores, want "
       << w.top_degree.size();
    return os.str();
  }
  std::vector<gvid_t> got_set;
  for (const auto& s : o.harmonic) got_set.push_back(s.gid);
  std::sort(got_set.begin(), got_set.end());
  std::vector<gvid_t> want_set = w.top_degree;
  std::sort(want_set.begin(), want_set.end());
  if (got_set != want_set)
    return "harmonic: candidates are not the top-degree vertices";
  for (std::size_t i = 0; i < o.harmonic.size(); ++i) {
    const auto& s = o.harmonic[i];
    const std::size_t j = static_cast<std::size_t>(
        std::find(w.top_degree.begin(), w.top_degree.end(), s.gid) -
        w.top_degree.begin());
    if (!close(s.score, w.harmonic[j])) {
      std::ostringstream os;
      os.precision(17);
      os << "harmonic: vertex " << s.gid << " scores " << s.score
         << ", reference " << w.harmonic[j];
      return os.str();
    }
    if (i > 0 && o.harmonic[i - 1].score < s.score)
      return "harmonic: scores are not in descending order";
  }
  return {};
}

}  // namespace

Expected Expected::compute(const hpcgraph::gen::EdgeList& el) {
  namespace ref = hpcgraph::ref;
  const SeqGraph g = SeqGraph::from(el);
  Expected e;
  e.n = el.n;
  e.m = el.edges.size();
  e.pagerank = ref::pagerank(g, kPageRankIters, kDamping);
  e.labels = label_prop_oracle(g, kLabelPropIters, kTieSeed);
  e.wcc = ref::wcc(g);
  e.scc = ref::scc(g);
  e.scc_largest = ref::largest_scc(g).size();
  e.kcore_approx = ref::kcore_approx(g, kKCoreMaxI);
  e.coreness = coreness_oracle(g);
  e.top_degree = top_degree_oracle(g, kHarmonicK);
  for (const gvid_t v : e.top_degree)
    e.harmonic.push_back(ref::harmonic_centrality(g, v));
  return e;
}

std::string check_op(Op op, const Expected& w, const Outputs& o) {
  switch (op) {
    case kSetup: return check_setup(w, o);
    case kPageRank: return check_pagerank(w, o);
    case kLabelProp: return first_mismatch("labelprop", o.labels, w.labels);
    case kWcc: return first_mismatch("wcc", o.wcc, w.wcc);
    case kScc: return check_scc(w, o);
    case kKCore: return check_kcore(w, o);
    case kHarmonic: return check_harmonic(w, o);
    case kNumOps: break;
  }
  return "unknown operation";
}

bool same_output(Op op, const Outputs& a, const Outputs& b) {
  switch (op) {
    case kSetup:
      return a.n_loc_sum == b.n_loc_sum && a.m_out_sum == b.m_out_sum &&
             a.m_in_sum == b.m_in_sum;
    case kPageRank: return a.pagerank == b.pagerank;
    case kLabelProp: return a.labels == b.labels;
    case kWcc: return a.wcc == b.wcc;
    case kScc: return a.scc == b.scc && a.scc_largest == b.scc_largest;
    case kKCore: return a.kcore == b.kcore;
    case kHarmonic:
      return std::equal(a.harmonic.begin(), a.harmonic.end(),
                        b.harmonic.begin(), b.harmonic.end(),
                        [](const auto& x, const auto& y) {
                          return x.gid == y.gid && x.score == y.score;
                        });
    case kNumOps: break;
  }
  return false;
}

bool bytes_conserved(const std::vector<hpcgraph::parcomm::CommStats>& ranks) {
  std::uint64_t received = 0, delivered = 0;
  for (const auto& s : ranks) {
    received += s.bytes_received;
    delivered += s.bytes_remote + s.bytes_self;
  }
  return received == delivered;
}

std::vector<std::uint64_t> label_prop_oracle(const SeqGraph& g,
                                             int iterations,
                                             std::uint64_t tie_seed) {
  const gvid_t n = g.n();
  std::vector<std::uint64_t> labels(n), next(n), nb;
  for (gvid_t v = 0; v < n; ++v) labels[v] = v;
  for (int it = 0; it < iterations; ++it) {
    const std::uint64_t round = tie_seed + static_cast<std::uint64_t>(it);
    for (gvid_t v = 0; v < n; ++v) {
      nb.clear();
      for (const gvid_t u : g.out_neighbors(v)) nb.push_back(labels[u]);
      for (const gvid_t u : g.in_neighbors(v)) nb.push_back(labels[u]);
      std::sort(nb.begin(), nb.end());
      std::uint64_t best = labels[v], best_count = 0, own_count = 0;
      for (std::size_t i = 0; i < nb.size();) {
        std::size_t j = i;
        while (j < nb.size() && nb[j] == nb[i]) ++j;
        const std::uint64_t count = j - i;
        if (nb[i] == labels[v]) own_count = count;
        if (count > best_count ||
            (count == best_count && mix64(nb[i] ^ round) > mix64(best ^ round))) {
          best = nb[i];
          best_count = count;
        }
        i = j;
      }
      next[v] = own_count == best_count ? labels[v] : best;
    }
    labels.swap(next);
  }
  return labels;
}

std::vector<std::uint64_t> coreness_oracle(const SeqGraph& g) {
  const gvid_t n = g.n();
  std::vector<std::uint64_t> deg(n);
  std::uint64_t max_deg = 0;
  for (gvid_t v = 0; v < n; ++v) {
    deg[v] = g.out_degree(v) + g.in_degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  // bin[d] = first position of degree-d vertices in `vert` (sorted by deg).
  std::vector<std::uint64_t> bin(max_deg + 2, 0), pos(n);
  std::vector<gvid_t> vert(n);
  for (gvid_t v = 0; v < n; ++v) ++bin[deg[v] + 1];
  for (std::uint64_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  {
    std::vector<std::uint64_t> fill(bin.begin(), bin.end() - 1);
    for (gvid_t v = 0; v < n; ++v) {
      pos[v] = fill[deg[v]]++;
      vert[pos[v]] = v;
    }
  }
  const auto lower = [&](gvid_t u, gvid_t v) {
    if (deg[u] <= deg[v]) return;
    const std::uint64_t du = deg[u];
    const std::uint64_t pw = bin[du];
    const gvid_t w = vert[pw];
    if (u != w) {
      std::swap(vert[pos[u]], vert[pw]);
      std::swap(pos[u], pos[w]);
    }
    ++bin[du];
    --deg[u];
  };
  for (std::uint64_t i = 0; i < n; ++i) {
    const gvid_t v = vert[i];
    for (const gvid_t u : g.out_neighbors(v)) lower(u, v);
    for (const gvid_t u : g.in_neighbors(v)) lower(u, v);
  }
  return deg;
}

std::vector<gvid_t> top_degree_oracle(const SeqGraph& g, std::size_t k) {
  std::vector<gvid_t> order(g.n());
  for (gvid_t v = 0; v < g.n(); ++v) order[v] = v;
  const auto total = [&](gvid_t v) { return g.out_degree(v) + g.in_degree(v); };
  k = std::min<std::size_t>(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](gvid_t a, gvid_t b) {
                      return total(a) != total(b) ? total(a) > total(b) : a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace e2e
