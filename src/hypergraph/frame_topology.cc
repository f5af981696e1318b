#include "hypergraph/frame_topology.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"

namespace dhgcn {

namespace {

constexpr size_t kAlign = 64;

size_t Aligned(size_t bytes) { return (bytes + kAlign - 1) / kAlign * kAlign; }

// Strict "a before b" in the total (distance, index) order with NaN after
// every number. For finite distances this is the plain comparison.
bool Before(const float* row, int64_t a, int64_t b) {
  const float da = row[a], db = row[b];
  const bool nan_a = std::isnan(da), nan_b = std::isnan(db);
  if (nan_a || nan_b) return nan_a == nan_b ? a < b : nan_b;
  if (da != db) return da < db;
  return a < b;
}

// d strictly nearer than `best` (NaN farthest): `d < best` for numbers.
bool Nearer(float d, float best) {
  return d < best || (std::isnan(best) && !std::isnan(d));
}

// d strictly farther than `best` (NaN farthest): `d > best` for numbers.
bool Farther(float d, float best) {
  return d > best || (std::isnan(d) && !std::isnan(best));
}

// Member of minimal mean distance to the cluster (ties -> lower vertex
// index); a singleton keeps its only member.
int64_t ClusterMedoid(const float* dist, int64_t v, const int64_t* members,
                      int64_t size) {
  int64_t best = members[0];
  double best_mean = std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < size; ++i) {
    const int64_t candidate = members[i];
    double total = 0.0;
    for (int64_t j = 0; j < size; ++j) {
      total += dist[candidate * v + members[j]];
    }
    const double mean = total / static_cast<double>(size);
    if (mean < best_mean || (mean == best_mean && candidate < best)) {
      best_mean = mean;
      best = candidate;
    }
  }
  return best;
}

// Byte sizes of the scratch regions, in the order the constructor carves
// them: features, packed X^T, Gram, distances, K-NN edges, cluster rows,
// cluster sizes, medoids, next medoids, assignment, inverse-sqrt degrees,
// accumulator.
std::array<size_t, 12> RegionBytes(int64_t v, int64_t c, int64_t kn,
                                   int64_t km) {
  const size_t f = sizeof(float), i = sizeof(int64_t);
  const size_t vv = static_cast<size_t>(v * v);
  const size_t sv = static_cast<size_t>(v), sk = static_cast<size_t>(km);
  return {static_cast<size_t>(v * c) * f,
          static_cast<size_t>(detail::GemmPackedBCount(c, v)) * f,
          vv * f,
          vv * f,
          static_cast<size_t>(v * kn) * i,
          sk * sv * i,
          sk * i,
          sk * i,
          sk * i,
          sv * i,
          sv * f,
          vv * sizeof(double)};
}

}  // namespace

size_t FrameTopology::ScratchBytes(int64_t v, int64_t c, int64_t kn,
                                   int64_t km) {
  size_t total = 0;
  for (size_t bytes : RegionBytes(v, c, kn, km)) total += Aligned(bytes);
  return total;
}

FrameTopology::FrameTopology(void* scratch, int64_t v, int64_t c, int64_t kn,
                             int64_t km)
    : v_(v), c_(c), kn_(kn), km_(km) {
  DHGCN_CHECK(kn >= 1 && kn <= v);
  DHGCN_CHECK(km >= 1 && km <= v);
  char* p = static_cast<char*>(scratch);
  DHGCN_CHECK_EQ(reinterpret_cast<uintptr_t>(p) % kAlign, 0u);
  const std::array<size_t, 12> sizes = RegionBytes(v, c, kn, km);
  size_t region = 0;
  auto carve = [&]() {
    char* start = p;
    p += Aligned(sizes[region++]);
    return start;
  };
  features_ = reinterpret_cast<float*>(carve());
  packed_ = reinterpret_cast<float*>(carve());
  gram_ = reinterpret_cast<float*>(carve());
  dist_ = reinterpret_cast<float*>(carve());
  knn_ = reinterpret_cast<int64_t*>(carve());
  members_ = reinterpret_cast<int64_t*>(carve());
  counts_ = reinterpret_cast<int64_t*>(carve());
  medoids_ = reinterpret_cast<int64_t*>(carve());
  next_medoids_ = reinterpret_cast<int64_t*>(carve());
  assignment_ = reinterpret_cast<int64_t*>(carve());
  inv_sqrt_degree_ = reinterpret_cast<float*>(carve());
  acc_ = reinterpret_cast<double*>(carve());
}

void FrameTopology::Load(const float* x, int64_t vertex_stride,
                         int64_t channel_stride) {
  const int64_t v = v_, c = c_;
  for (int64_t j = 0; j < v; ++j) {
    for (int64_t p = 0; p < c; ++p) {
      features_[j * c + p] = x[j * vertex_stride + p * channel_stride];
    }
  }
  // X^T goes straight into the B layout of the Gram kernel (see
  // ComputeDistances): panel-major packed panels as GemmPackB builds
  // them — panel q holds vertices [16q, 16q + 16), zero-padded, all C
  // rows contiguous — or plain row-major (C, V).
  if (detail::GemmUseBlocked(v, c, v)) {
    const int64_t nr = detail::kGemmNR;
    for (int64_t j0 = 0; j0 < v; j0 += nr) {
      const int64_t cols = std::min(nr, v - j0);
      float* dst = packed_ + j0 * c;  // panel j0 / nr
      for (int64_t p = 0; p < c; ++p) {
        float* out = dst + p * nr;
        const float* src = x + j0 * vertex_stride + p * channel_stride;
        for (int64_t j = 0; j < cols; ++j) out[j] = src[j * vertex_stride];
        for (int64_t j = cols; j < nr; ++j) out[j] = 0.0f;
      }
    }
  } else {
    for (int64_t p = 0; p < c; ++p) {
      for (int64_t j = 0; j < v; ++j) {
        packed_[p * v + j] = x[j * vertex_stride + p * channel_stride];
      }
    }
  }
}

void FrameTopology::ComputeDistances() {
  const int64_t v = v_, c = c_;
  std::fill(gram_, gram_ + v * v, 0.0f);
  // The kernel MatMulInto(X, X^T) picks for this shape, called serially:
  // MatMulInto only splits it into row chunks, and each row's arithmetic
  // is independent of the split, so the bits are the same — without
  // nesting a ParallelFor inside a frame-parallel task or touching the
  // shared pack arena.
  if (detail::GemmUseBlocked(v, c, v)) {
    detail::GemmBlockedPackedB(features_, packed_, gram_, v, c, v);
  } else {
    detail::GemmAccumulate(features_, packed_, gram_, v, c, v);
  }
  // G is bitwise symmetric (G_ij and G_ji run the same ascending-p sum
  // with the factors swapped), so dist is exactly symmetric; max(., 0)
  // clamps cancellation residue of near-duplicate rows.
  for (int64_t i = 0; i < v; ++i) {
    const double gii = gram_[i * v + i];
    float* drow = dist_ + i * v;
    const float* grow = gram_ + i * v;
    for (int64_t j = 0; j < v; ++j) {
      const double g2 =
          gii + gram_[j * v + j] - 2.0 * static_cast<double>(grow[j]);
      drow[j] = static_cast<float>(std::sqrt(std::max(g2, 0.0)));
    }
    drow[i] = 0.0f;
  }
}

void SelectNearest(const float* row, int64_t v, int64_t self, int64_t k,
                   int64_t* out) {
  DHGCN_CHECK(k >= 0 && k <= v - 1);
  if (k == 0) return;
  // Insertion into a sorted k-slot window. Candidates arrive in
  // ascending index order, so an equal-distance newcomer never passes
  // an earlier one: the result is the k-prefix of a stable sort.
  int64_t count = 0;
  for (int64_t j = 0; j < v; ++j) {
    if (j == self) continue;
    int64_t pos;
    if (count < k) {
      pos = count++;
    } else if (Before(row, j, out[k - 1])) {
      pos = k - 1;
    } else {
      continue;
    }
    while (pos > 0 && Before(row, j, out[pos - 1])) {
      out[pos] = out[pos - 1];
      --pos;
    }
    out[pos] = j;
  }
}

void FrameTopology::SelectKnn() {
  for (int64_t i = 0; i < v_; ++i) {
    int64_t* edge = knn_ + i * kn_;
    edge[0] = i;
    SelectNearest(dist_ + i * v_, v_, i, kn_ - 1, edge + 1);
  }
}

void FrameTopology::RunKMeans(Rng& rng, int64_t max_iters) {
  DHGCN_CHECK_GT(max_iters, 0);
  const int64_t v = v_, k = km_;
  // Initial medoids: partial Fisher–Yates draw of k distinct vertices
  // (Rng::SampleWithoutReplacement's draws), sorted.
  int64_t* pool = assignment_;
  for (int64_t i = 0; i < v; ++i) pool[i] = i;
  for (int64_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[rng.UniformInt(i, v - 1)]);
  }
  std::copy(pool, pool + k, medoids_);
  std::sort(medoids_, medoids_ + k);

  iterations_ = 0;
  converged_ = false;
  for (int64_t iter = 0; iter < max_iters; ++iter) {
    iterations_ = iter + 1;
    // Assignment: nearest medoid, ties -> lowest cluster index.
    for (int64_t node = 0; node < v; ++node) {
      const float* drow = dist_ + node * v;
      int64_t best_cluster = 0;
      float best_dist = drow[medoids_[0]];
      for (int64_t c = 1; c < k; ++c) {
        const float d = drow[medoids_[c]];
        if (Nearer(d, best_dist)) {
          best_dist = d;
          best_cluster = c;
        }
      }
      assignment_[node] = best_cluster;
    }
    std::fill(counts_, counts_ + k, 0);
    for (int64_t node = 0; node < v; ++node) {
      const int64_t c = assignment_[node];
      members_[c * v + counts_[c]++] = node;
    }
    // Refill each empty cluster with the vertex farthest from its own
    // medoid, taken from a cluster with more than one member: erased
    // from the donor in order, appended to the empty cluster. k <= V
    // guarantees a donor, and every donor member qualifies.
    for (int64_t c = 0; c < k; ++c) {
      if (counts_[c] != 0) continue;
      int64_t steal_cluster = -1, steal_pos = -1;
      float steal_dist = -1.0f;
      for (int64_t c2 = 0; c2 < k; ++c2) {
        if (counts_[c2] <= 1) continue;
        const int64_t* row = members_ + c2 * v;
        for (int64_t i = 0; i < counts_[c2]; ++i) {
          const float d = dist_[row[i] * v + medoids_[c2]];
          if (steal_cluster < 0 || Farther(d, steal_dist)) {
            steal_dist = d;
            steal_cluster = c2;
            steal_pos = i;
          }
        }
      }
      DHGCN_CHECK_GE(steal_cluster, 0);
      int64_t* donor = members_ + steal_cluster * v;
      const int64_t node = donor[steal_pos];
      std::copy(donor + steal_pos + 1, donor + counts_[steal_cluster],
                donor + steal_pos);
      --counts_[steal_cluster];
      members_[c * v + counts_[c]++] = node;
    }
    for (int64_t c = 0; c < k; ++c) {
      next_medoids_[c] = ClusterMedoid(dist_, v, members_ + c * v, counts_[c]);
    }
    const bool moved = !std::equal(medoids_, medoids_ + k, next_medoids_);
    std::copy(next_medoids_, next_medoids_ + k, medoids_);
    if (!moved) {
      converged_ = true;
      break;
    }
  }
}

void FrameTopology::AssembleOperator(float* out) {
  const int64_t v = v_;
  // d(v) = sum_e w(e) h(v, e) with unit weights (Eq. 3): a count, exact
  // in float.
  std::fill(inv_sqrt_degree_, inv_sqrt_degree_ + v, 0.0f);
  for (int64_t i = 0; i < v * kn_; ++i) inv_sqrt_degree_[knn_[i]] += 1.0f;
  for (int64_t c = 0; c < km_; ++c) {
    for (int64_t i = 0; i < counts_[c]; ++i) {
      inv_sqrt_degree_[members_[c * v + i]] += 1.0f;
    }
  }
  for (int64_t i = 0; i < v; ++i) {
    const float d = inv_sqrt_degree_[i];
    inv_sqrt_degree_[i] = d > 0.0f ? 1.0f / std::sqrt(d) : 0.0f;
  }
  // Omega[a][u] = sum_e double(L[a][e]) * R[u][e] with
  // L = Dv^-1/2 H W De^-1 and R = Dv^-1/2 H, edge by edge in ascending
  // order. Entries outside an edge are zero products — exact no-ops in
  // the double accumulator — so only the edge's own pairs are visited.
  std::fill(acc_, acc_ + v * v, 0.0);
  const float* isd = inv_sqrt_degree_;
  double* acc = acc_;
  auto add_edge = [isd, acc, v](const int64_t* edge, int64_t size) {
    const float inv_de = 1.0f / static_cast<float>(size);
    constexpr float kWeight = 1.0f;  // W = I: the paper's initial weights
    for (int64_t a = 0; a < size; ++a) {
      const double left = isd[edge[a]] * kWeight * inv_de;
      double* arow = acc + edge[a] * v;
      for (int64_t b = 0; b < size; ++b) {
        arow[edge[b]] += left * static_cast<double>(isd[edge[b]]);
      }
    }
  };
  for (int64_t i = 0; i < v; ++i) add_edge(knn_ + i * kn_, kn_);
  for (int64_t c = 0; c < km_; ++c) add_edge(members_ + c * v, counts_[c]);
  for (int64_t i = 0; i < v * v; ++i) out[i] = static_cast<float>(acc_[i]);
}

}  // namespace dhgcn
