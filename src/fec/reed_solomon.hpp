// Systematic Reed-Solomon erasure code over GF(256).
//
// Encoding matrix: the top k rows are the identity (shards 0..k-1 are the
// data unchanged — *systematic* coding, which the paper relies on: a node
// that cannot decode a window still plays the raw stream packets it did
// receive); the bottom m rows make every k-subset of the n=k+m rows
// invertible (Vandermonde construction, normalized so parity rows stay
// independent together with identity rows).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/matrix.hpp"

namespace hg::fec {

class ReedSolomon {
 public:
  // k data shards, m parity shards; k + m <= 255.
  ReedSolomon(std::size_t k, std::size_t m);

  [[nodiscard]] std::size_t data_shards() const { return k_; }
  [[nodiscard]] std::size_t parity_shards() const { return m_; }
  [[nodiscard]] std::size_t total_shards() const { return k_ + m_; }

  // data: k equally sized shards. Returns m parity shards of the same size.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::vector<std::uint8_t>> data) const;

  // One shard slot as repair() reads it: engaged when the shard is present.
  // An engaged empty span is a present zero-length shard, not a missing one.
  using ShardView = std::optional<std::span<const std::uint8_t>>;

  // Erasure-only repair. shards: n slots, data first. With e data shards
  // missing, takes the first e present parity shards, subtracts the present
  // data shards' contribution from them (syndromes) and solves the e x e
  // system left, so only the missing shards are computed and nothing present
  // is copied. Returns the rebuilt shards in ascending index order (none
  // when every data shard is present), or std::nullopt when fewer than k
  // shards are present or the present shards disagree in length.
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> repair(
      std::span<const ShardView> shards) const;

  // shards: n entries; missing ones nullopt. Returns the k data shards if at
  // least k shards are present, std::nullopt otherwise. A copying adapter
  // over repair().
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> decode(
      std::span<const std::optional<std::vector<std::uint8_t>>> shards) const;

  [[nodiscard]] const Matrix& encoding_matrix() const { return enc_; }

 private:
  std::size_t k_;
  std::size_t m_;
  Matrix enc_;  // (k+m) x k
};

}  // namespace hg::fec
