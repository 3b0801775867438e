#include "fec/reed_solomon.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "fec/gf256.hpp"

namespace hg::fec {

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m) : k_(k), m_(m) {
  // m == 0 is the degenerate parity-free code: encode() returns no shards
  // and decode() only succeeds when every data shard is present. WindowCodec
  // relies on it for the retransmission-only ablation arm.
  HG_ASSERT(k >= 1);
  HG_ASSERT_MSG(k + m <= 255, "GF(256) supports at most 255 shards");
  // E = V * inverse(V_top): top k rows become the identity while every
  // k-row subset stays invertible (right-multiplication by an invertible
  // matrix preserves the rank of any row selection).
  const Matrix v = Matrix::vandermonde(k + m, k);
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  enc_ = v.multiply(v.select_rows(top).inverted());
  // Sanity: systematic part must be the identity.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      HG_ASSERT(enc_.at(r, c) == (r == c ? 1 : 0));
    }
  }
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::vector<std::uint8_t>> data) const {
  HG_ASSERT(data.size() == k_);
  const std::size_t shard_len = data[0].size();
  for (const auto& d : data) HG_ASSERT_MSG(d.size() == shard_len, "shards must be equal size");

  std::vector<std::vector<std::uint8_t>> parity(m_, std::vector<std::uint8_t>(shard_len, 0));
  for (std::size_t p = 0; p < m_; ++p) {
    const std::uint8_t* coeffs = enc_.row(k_ + p);
    for (std::size_t d = 0; d < k_; ++d) {
      GF256::mul_add_slice(parity[p].data(), data[d].data(), shard_len, coeffs[d]);
    }
  }
  return parity;
}

std::optional<std::vector<std::vector<std::uint8_t>>> ReedSolomon::repair(
    std::span<const ShardView> shards) const {
  HG_ASSERT(shards.size() == k_ + m_);

  // Shards come off the wire, so treat malformed input as undecodable, not
  // as a programming error: every present shard — whether it feeds the
  // repair or is merely carried along — must agree on length.
  std::size_t shard_len = 0;
  bool saw_present = false;
  for (const ShardView& s : shards) {
    if (!s.has_value()) continue;
    if (!saw_present) {
      shard_len = s->size();
      saw_present = true;
    } else if (s->size() != shard_len) {
      return std::nullopt;
    }
  }

  std::vector<std::size_t> missing;
  for (std::size_t d = 0; d < k_; ++d) {
    if (!shards[d].has_value()) missing.push_back(d);
  }
  const std::size_t e = missing.size();
  std::vector<std::vector<std::uint8_t>> out(e);
  if (e == 0) return out;

  // The present data rows plus these e parity rows are k rows of the
  // encoding matrix, hence invertible; their system reduces to the e x e
  // block of the parity rows on the missing columns. Taking the first
  // present parity rows picks the same k rows a full k x k solve would, so
  // the result is the same even for inconsistent (corrupted) shard sets.
  std::vector<std::size_t> parity;
  for (std::size_t p = k_; p < k_ + m_ && parity.size() < e; ++p) {
    if (shards[p].has_value()) parity.push_back(p);
  }
  if (parity.size() < e) return std::nullopt;

  // syndromes[j] = parity_j - sum over present data d of E[p_j][d] * data_d,
  // which leaves sum over missing d of E[p_j][d] * data_d.
  std::vector<std::uint8_t> syndromes(e * shard_len);
  Matrix a(e, e);
  for (std::size_t j = 0; j < e; ++j) {
    std::uint8_t* syn = syndromes.data() + j * shard_len;
    std::copy(shards[parity[j]]->begin(), shards[parity[j]]->end(), syn);
    const std::uint8_t* coeffs = enc_.row(parity[j]);
    for (std::size_t d = 0; d < k_; ++d) {
      if (shards[d].has_value()) GF256::mul_add_slice(syn, shards[d]->data(), shard_len, coeffs[d]);
    }
    for (std::size_t i = 0; i < e; ++i) a.set(j, i, coeffs[missing[i]]);
  }

  const Matrix inv = a.inverted();
  for (std::size_t i = 0; i < e; ++i) {
    out[i].assign(shard_len, 0);
    for (std::size_t j = 0; j < e; ++j) {
      GF256::mul_add_slice(out[i].data(), syndromes.data() + j * shard_len, shard_len,
                           inv.at(i, j));
    }
  }
  return out;
}

std::optional<std::vector<std::vector<std::uint8_t>>> ReedSolomon::decode(
    std::span<const std::optional<std::vector<std::uint8_t>>> shards) const {
  std::vector<ShardView> views(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) views[i].emplace(*shards[i]);
  }
  auto repaired = repair(views);
  if (!repaired.has_value()) return std::nullopt;

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(k_);
  auto next = repaired->begin();
  for (std::size_t d = 0; d < k_; ++d) {
    if (shards[d].has_value()) {
      out.push_back(*shards[d]);
    } else {
      out.push_back(std::move(*next++));
    }
  }
  return out;
}

}  // namespace hg::fec
