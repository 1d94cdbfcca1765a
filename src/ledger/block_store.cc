#include "ledger/block_store.h"

#include <algorithm>

namespace prestige {
namespace ledger {

util::Status BlockStore::AppendTxBlock(TxBlock block) {
  const types::SeqNum expected = LatestTxSeq() + 1;
  if (block.n() != expected) {
    return util::Status::Corruption("txBlock sequence gap: expected " +
                                    std::to_string(expected) + ", got " +
                                    std::to_string(block.n()));
  }
  if (!tx_chain_.empty() && block.prev_hash() != tx_chain_.back().Digest()) {
    return util::Status::Corruption("txBlock prev_hash mismatch at n=" +
                                    std::to_string(block.n()));
  }
  total_txs_ += static_cast<int64_t>(block.BatchSize());
  tx_chain_.push_back(std::move(block));
  return util::Status::OK();
}

util::Status BlockStore::AppendVcBlock(VcBlock block) {
  if (!vc_chain_.empty()) {
    if (block.v() <= vc_chain_.back().v()) {
      return util::Status::Corruption("vcBlock view not increasing: " +
                                      std::to_string(block.v()));
    }
    if (block.prev_hash() != vc_chain_.back().Digest()) {
      return util::Status::Corruption("vcBlock prev_hash mismatch at v=" +
                                      std::to_string(block.v()));
    }
  }
  vc_chain_.push_back(std::move(block));
  return util::Status::OK();
}

util::Status BlockStore::AppendVcBlockResolvingFork(VcBlock block,
                                                    size_t max_unwind) {
  if (util::Status direct = AppendVcBlock(block); direct.ok()) {
    return direct;
  }
  if (vc_chain_.empty()) {
    return util::Status::Corruption("fork resolution on empty chain");
  }
  if (block.v() <= vc_chain_.back().v()) {
    return util::Status::Corruption("fork block does not exceed tip view");
  }
  // Search for the parent among the most recent blocks.
  const size_t limit = std::min(max_unwind, vc_chain_.size());
  for (size_t back = 1; back <= limit; ++back) {
    const size_t idx = vc_chain_.size() - back;
    if (vc_chain_[idx].Digest() == block.prev_hash()) {
      vc_chain_.resize(idx + 1);  // Unwind the conflicting tail.
      return AppendVcBlock(std::move(block));
    }
  }
  return util::Status::Corruption("fork parent not found in recent chain");
}

const TxBlock* BlockStore::TxBlockAt(types::SeqNum n) const {
  if (n < 1 || static_cast<size_t>(n) > tx_chain_.size()) return nullptr;
  return &tx_chain_[static_cast<size_t>(n - 1)];
}

const VcBlock* BlockStore::VcBlockFor(types::View v) const {
  // Views are strictly increasing but not dense; binary search.
  size_t lo = 0, hi = vc_chain_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (vc_chain_[mid].v() < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < vc_chain_.size() && vc_chain_[lo].v() == v) return &vc_chain_[lo];
  return nullptr;
}

std::vector<TxBlock> BlockStore::TxBlocksAfter(types::SeqNum after,
                                               types::SeqNum up_to) const {
  // Heights are contiguous from 1 (AppendTxBlock enforces it), so block n
  // sits at index n - 1.
  const types::SeqNum first = std::max<types::SeqNum>(after, 0);
  const types::SeqNum last = std::min(up_to, LatestTxSeq());
  if (first >= last) return {};
  return std::vector<TxBlock>(tx_chain_.begin() + first,
                              tx_chain_.begin() + last);
}

std::vector<VcBlock> BlockStore::VcBlocksAfter(types::View after,
                                               types::View up_to) const {
  std::vector<VcBlock> out;
  for (const VcBlock& b : vc_chain_) {
    if (b.v() > after && b.v() <= up_to) out.push_back(b);
  }
  return out;
}

std::vector<types::Penalty> BlockStore::HistoricPenalties(
    types::ReplicaId id) const {
  std::vector<types::Penalty> penalties;
  penalties.reserve(vc_chain_.size());
  for (auto it = vc_chain_.rbegin(); it != vc_chain_.rend(); ++it) {
    penalties.push_back(it->PenaltyOf(id));
  }
  return penalties;
}

}  // namespace ledger
}  // namespace prestige
