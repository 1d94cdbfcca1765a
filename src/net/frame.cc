#include "net/frame.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "net/wire.h"

namespace prestige {
namespace net {

namespace {

// Header layout (little-endian): magic u32 @0, version u8 @4, flags u8 @5,
// src u32 @6, dst u32 @10, seq u64 @14, frame_id u32 @22, frag_index u16
// @26, frag_count u16 @28, payload_len u32 @30, total_len u32 @34,
// checksum u32 @38.
constexpr size_t kDstOffset = 10;
constexpr size_t kSeqOffset = 14;

/// Every header field; dst and seq as `h` holds them, for AddressTo to
/// rewrite per copy.
void PutHeader(const FrameHeader& h, uint8_t* out) {
  Writer w(out, out + kFrameHeaderBytes);
  w.PutU32(kFrameMagic);
  w.PutU8(kFrameVersion);
  w.PutU8(0);  // flags, reserved
  w.PutU32(h.src);
  w.PutU32(h.dst);
  w.PutU64(h.seq);
  w.PutU32(h.frame_id);
  w.PutU16(h.frag_index);
  w.PutU16(h.frag_count);
  w.PutU32(h.payload_len);
  w.PutU32(h.total_len);
  w.PutU32(h.checksum);
}

}  // namespace

bool DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out) {
  if (data == nullptr || len < kFrameHeaderBytes) return false;
  Reader r(data, len);
  if (r.U32() != kFrameMagic) return false;
  if (r.U8() != kFrameVersion) return false;
  r.U8();  // flags
  out->src = r.U32();
  out->dst = r.U32();
  out->seq = r.U64();
  out->frame_id = r.U32();
  out->frag_index = r.U16();
  out->frag_count = r.U16();
  out->payload_len = r.U32();
  out->total_len = r.U32();
  out->checksum = r.U32();
  return r.ok();
}

void FrameCounters::MergeFrom(const FrameCounters& other) {
  frames_sent += other.frames_sent;
  bytes_sent += other.bytes_sent;
  send_errors += other.send_errors;
  frames_received += other.frames_received;
  bytes_received += other.bytes_received;
  header_drops += other.header_drops;
  wrong_dst_drops += other.wrong_dst_drops;
  length_drops += other.length_drops;
  checksum_drops += other.checksum_drops;
  frag_drops += other.frag_drops;
  decode_drops += other.decode_drops;
  messages_assembled += other.messages_assembled;
  seq_gaps += other.seq_gaps;
  seq_out_of_order += other.seq_out_of_order;
  unserializable_drops += other.unserializable_drops;
}

// -------------------------------------------------------------- FrameWriter

FrameHeader FrameWriter::SharedHeader(size_t total_len, size_t frag_count) {
  FrameHeader h;
  h.src = src_;
  h.frame_id = next_frame_id_++;
  h.frag_count = static_cast<uint16_t>(frag_count);
  h.total_len = static_cast<uint32_t>(total_len);
  return h;
}

FrameWriter::Frames FrameWriter::FrameCopy(const uint8_t* payload,
                                           size_t len) {
  Frames frames;
  if (len == 0 || len > kMaxMessageBytes) return frames;

  const size_t frag_count = (len + kMaxFragPayload - 1) / kMaxFragPayload;
  frames.resize(frag_count);
  FrameHeader h = SharedHeader(len, frag_count);
  for (size_t i = 0; i < frag_count; ++i) {
    const size_t offset = i * kMaxFragPayload;
    const size_t frag_len = std::min(kMaxFragPayload, len - offset);
    const uint8_t* fragment = payload + offset;
    h.frag_index = static_cast<uint16_t>(i);
    h.payload_len = static_cast<uint32_t>(frag_len);
    h.checksum = Crc32c(fragment, frag_len);
    std::vector<uint8_t>& datagram = frames[i];
    datagram.resize(kFrameHeaderBytes + frag_len);
    PutHeader(h, datagram.data());
    std::memcpy(datagram.data() + kFrameHeaderBytes, fragment, frag_len);
  }
  return frames;
}

FrameWriter::Frames FrameWriter::Frame(const std::vector<uint8_t>& payload) {
  return FrameCopy(payload.data(), payload.size());
}

FrameWriter::Frames FrameWriter::FrameInPlace(std::vector<uint8_t> buffer) {
  assert(buffer.size() >= kFrameHeaderBytes && "no room for the header");
  if (buffer.size() <= kFrameHeaderBytes) return {};
  const uint8_t* payload = buffer.data() + kFrameHeaderBytes;
  const size_t len = buffer.size() - kFrameHeaderBytes;
  if (len > kMaxFragPayload) return FrameCopy(payload, len);

  FrameHeader h = SharedHeader(len, 1);
  h.payload_len = static_cast<uint32_t>(len);
  h.checksum = Crc32c(payload, len);
  PutHeader(h, buffer.data());
  Frames frames;
  frames.push_back(std::move(buffer));
  return frames;
}

void FrameWriter::AddressTo(uint32_t dst, Frames* frames) {
  if (frames->empty()) return;
  uint64_t& seq = next_seq_[dst];
  for (std::vector<uint8_t>& datagram : *frames) {
    Writer w(datagram.data() + kDstOffset, datagram.data() + kSeqOffset + 8);
    w.PutU32(dst);
    w.PutU64(++seq);
  }
}

FrameWriter::Frames FrameWriter::Split(uint32_t dst,
                                       const std::vector<uint8_t>& payload) {
  Frames frames = Frame(payload);
  AddressTo(dst, &frames);
  return frames;
}

// ----------------------------------------------------------- FrameAssembler

void FrameAssembler::TrackSeq(const FrameHeader& h) {
  uint64_t& last = last_seq_[h.src];
  if (h.seq > last) {
    counters_.seq_gaps += h.seq - last - 1;
    last = h.seq;
  } else {
    ++counters_.seq_out_of_order;
  }
}

FrameAssembler::Partial* FrameAssembler::FindOrCreate(const FrameHeader& h) {
  for (Partial& p : partials_) {
    if (p.src == h.src && p.frame_id == h.frame_id) return &p;
  }
  if (partials_.size() >= kMaxReassembly) {
    // Evict the oldest partial — a flood of never-completed fragments must
    // not pin memory.
    size_t oldest = 0;
    for (size_t i = 1; i < partials_.size(); ++i) {
      if (partials_[i].tick < partials_[oldest].tick) oldest = i;
    }
    partials_.erase(partials_.begin() + static_cast<long>(oldest));
    ++counters_.frag_drops;
  }
  Partial p;
  p.src = h.src;
  p.frame_id = h.frame_id;
  p.total_len = h.total_len;
  p.frag_count = h.frag_count;
  p.tick = ++tick_;
  p.buf.assign(h.total_len, 0);
  p.have.assign(h.frag_count, false);
  partials_.push_back(std::move(p));
  return &partials_.back();
}

void FrameAssembler::Accept(const uint8_t* data, size_t len,
                            std::vector<Complete>* out) {
  FrameHeader h;
  if (!DecodeFrameHeader(data, len, &h)) {
    ++counters_.header_drops;
    return;
  }
  ++counters_.frames_received;
  counters_.bytes_received += len;
  if (h.dst != local_id_) {
    ++counters_.wrong_dst_drops;
    return;
  }
  TrackSeq(h);

  const uint8_t* payload = data + kFrameHeaderBytes;
  const size_t payload_len = len - kFrameHeaderBytes;
  // Every length claim is validated against reality before any indexing.
  if (h.payload_len != payload_len || h.total_len > kMaxMessageBytes ||
      h.frag_count == 0 || h.frag_index >= h.frag_count ||
      h.total_len == 0 || payload_len > kMaxFragPayload) {
    ++counters_.length_drops;
    return;
  }
  const size_t offset = static_cast<size_t>(h.frag_index) * kMaxFragPayload;
  if (offset + payload_len > h.total_len ||
      (h.frag_index + 1 < h.frag_count && payload_len != kMaxFragPayload) ||
      (h.frag_index + 1 == h.frag_count &&
       offset + payload_len != h.total_len)) {
    ++counters_.length_drops;
    return;
  }
  if (Crc32c(payload, payload_len) != h.checksum) {
    ++counters_.checksum_drops;
    return;
  }

  // Single-fragment fast path: no reassembly state, and no copy — the
  // message is a view into `data`.
  if (h.frag_count == 1) {
    ++counters_.messages_assembled;
    Complete c;
    c.src = h.src;
    c.view = payload;
    c.view_len = payload_len;
    out->push_back(std::move(c));
    return;
  }

  Partial* p = FindOrCreate(h);
  // A later fragment whose geometry disagrees with the partial's first
  // fragment is hostile or corrupted: drop the whole partial.
  if (p->total_len != h.total_len || p->frag_count != h.frag_count) {
    for (size_t i = 0; i < partials_.size(); ++i) {
      if (&partials_[i] == p) {
        partials_.erase(partials_.begin() + static_cast<long>(i));
        break;
      }
    }
    ++counters_.frag_drops;
    return;
  }
  if (p->have[h.frag_index]) {
    ++counters_.seq_out_of_order;  // Duplicate fragment.
    return;
  }
  std::memcpy(p->buf.data() + offset, payload, payload_len);
  p->have[h.frag_index] = true;
  ++p->received;
  if (p->received < p->frag_count) return;

  ++counters_.messages_assembled;
  Complete c;
  c.src = p->src;
  c.payload = std::move(p->buf);
  out->push_back(std::move(c));
  for (size_t i = 0; i < partials_.size(); ++i) {
    if (&partials_[i] == p) {
      partials_.erase(partials_.begin() + static_cast<long>(i));
      break;
    }
  }
}

}  // namespace net
}  // namespace prestige
