// Datagram framing for the socket backend.
//
// Every UDP datagram carries one fixed 42-byte header followed by a payload
// fragment. The header identifies the logical (src, dst) node pair, a
// per-(src, dst) sequence number (loss/reorder observability — the protocol
// layer above already retransmits, so frames are never re-sent by this
// layer), and fragmentation coordinates: messages larger than one datagram
// (big SyncResp bodies, large batches) are split into frag_count fragments
// sharing a frame_id and reassembled on the receiver. Each fragment's
// payload carries a CRC32C (frame version 2; version 1 used FNV-1a, so an
// old sender's datagram is a header drop, not a checksum drop).
//
// A message is framed once however many nodes receive it: FrameWriter::Frame
// builds and checksums the fragments, and FrameWriter::AddressTo stamps only
// the two per-copy header fields (dst, seq) before each destination's
// sends. The checksum covers the payload alone, so re-addressing a frame
// never invalidates it.
//
// Neither direction copies a one-datagram message: the sender encodes
// behind kFrameHeaderBytes of room and FrameWriter::FrameInPlace writes the
// header into that room, and FrameAssembler::Accept hands such a message
// back as a view into the received datagram. Only a message split over
// several datagrams is copied, into its fragments and back into one
// reassembled buffer.
//
// The decode path is hostile-input safe: short datagrams, bad magic,
// version/dst mismatches, length lies, checksum failures, and reassembly
// floods all turn into counted drops (FrameCounters), never crashes or
// unbounded memory. The reassembly table is bounded: at most
// kMaxReassembly partial messages are held; the oldest is evicted first.

#ifndef PRESTIGE_NET_FRAME_H_
#define PRESTIGE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace prestige {
namespace net {

constexpr uint32_t kFrameMagic = 0x54464250;  ///< "PBFT" little-endian.
constexpr uint8_t kFrameVersion = 2;
constexpr size_t kFrameHeaderBytes = 42;
/// Datagram budget: below the 64 KiB UDP ceiling with headroom for the
/// kernel's own headers.
constexpr size_t kMaxDatagramBytes = 60000;
constexpr size_t kMaxFragPayload = kMaxDatagramBytes - kFrameHeaderBytes;
/// Whole-message ceiling across all fragments of one frame_id.
constexpr size_t kMaxMessageBytes = 32u << 20;
/// Concurrent partial reassemblies held per receiving socket.
constexpr size_t kMaxReassembly = 64;

/// One datagram's header, host-order.
struct FrameHeader {
  uint32_t src = 0;        ///< Sending node id (claimed; see socket_env.h).
  uint32_t dst = 0;        ///< Intended receiving node id.
  uint64_t seq = 0;        ///< Per-(src, dst) datagram counter, from 1.
  uint32_t frame_id = 0;   ///< Per-src message counter (reassembly key);
                           ///< every copy of one message shares it.
  uint16_t frag_index = 0;
  uint16_t frag_count = 1;
  uint32_t payload_len = 0;  ///< Payload bytes in THIS datagram.
  uint32_t total_len = 0;    ///< Whole message bytes across all fragments.
  uint32_t checksum = 0;     ///< CRC32C over this datagram's payload.
};

/// CRC32C (Castagnoli; "123456789" -> 0xE3069283) — integrity against
/// truncation/corruption, not an authenticator (message-level MACs provide
/// authentication). Runs on the SSE4.2 crc32 instruction when CPUID
/// reports it, else on a portable table; both give the same value.
uint32_t Crc32c(const uint8_t* data, size_t len);

/// Parses a datagram's header. Returns false on short input, bad magic, or
/// unsupported version; performs no payload validation (FrameAssembler's
/// job).
bool DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out);

/// Frame-level observability counters (one set per socket direction).
struct FrameCounters {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t send_errors = 0;       ///< sendto failures, oversized messages.
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
  uint64_t header_drops = 0;      ///< Short datagram / magic / version.
  uint64_t wrong_dst_drops = 0;   ///< dst field does not match this node.
  uint64_t length_drops = 0;      ///< payload_len / total_len lies.
  uint64_t checksum_drops = 0;
  uint64_t frag_drops = 0;        ///< Inconsistent or evicted fragments.
  uint64_t decode_drops = 0;      ///< Frame ok, wire decode failed.
  uint64_t messages_assembled = 0;
  uint64_t seq_gaps = 0;          ///< Missing datagrams inferred from seq.
  uint64_t seq_out_of_order = 0;  ///< Duplicate or reordered datagrams.
  uint64_t unserializable_drops = 0;  ///< Sends with no wire form, remote dst.

  void MergeFrom(const FrameCounters& other);
};

/// Sender-side splitter: owns the per-destination sequence counters and the
/// per-source frame_id counter for one local node.
class FrameWriter {
 public:
  using Frames = std::vector<std::vector<uint8_t>>;

  explicit FrameWriter(uint32_t src) : src_(src) {}

  /// Frames `payload` for any number of destinations: one datagram per
  /// fragment, checksummed, under one fresh frame_id, with dst and seq
  /// left for AddressTo. Returns no frames when payload is empty or over
  /// kMaxMessageBytes; SocketRuntime counts each copy of such a send in
  /// send_errors.
  Frames Frame(const std::vector<uint8_t>& payload);

  /// Frame for a payload that starts kFrameHeaderBytes into `buffer` (the
  /// front bytes are room for a header). A payload that fits one datagram
  /// is framed in place: `buffer` itself becomes the datagram, with no
  /// byte copied. A longer one is split exactly as Frame splits it.
  Frames FrameInPlace(std::vector<uint8_t> buffer);

  /// Readies `frames` (from Frame) for one destination: writes `dst` and
  /// the next per-(src, dst) sequence numbers into their headers.
  void AddressTo(uint32_t dst, Frames* frames);

  /// Frame + AddressTo for a single destination.
  Frames Split(uint32_t dst, const std::vector<uint8_t>& payload);

 private:
  /// Frame's work on raw bytes: each fragment gets a datagram of its own
  /// and its payload copied in.
  Frames FrameCopy(const uint8_t* payload, size_t len);
  /// The header fields every fragment shares, under a fresh frame_id.
  FrameHeader SharedHeader(size_t total_len, size_t frag_count);

  uint32_t src_;
  uint32_t next_frame_id_ = 1;
  std::map<uint32_t, uint64_t> next_seq_;  ///< Per destination, from 1.
};

/// Receiver-side reassembler for one local node's socket.
class FrameAssembler {
 public:
  /// `local_id` is the node this socket belongs to; frames addressed to
  /// anyone else are counted and dropped.
  explicit FrameAssembler(uint32_t local_id) : local_id_(local_id) {}

  /// A complete message payload and its claimed sender. A message that
  /// came in one datagram is a view into that datagram: the bytes passed
  /// to Accept, so it is valid only while they are (in SocketRuntime, until
  /// the next receive, which precedes the next Accept). A message
  /// reassembled from several datagrams owns its bytes in `payload`.
  struct Complete {
    uint32_t src = 0;
    std::vector<uint8_t> payload;  ///< Reassembled bytes; empty for a view.
    const uint8_t* view = nullptr;  ///< Single-datagram payload, or null.
    size_t view_len = 0;

    const uint8_t* data() const {
      return view != nullptr ? view : payload.data();
    }
    size_t size() const { return view != nullptr ? view_len : payload.size(); }
  };

  /// Feeds one received datagram; appends any message it completes to
  /// `out`. Malformed input is counted in counters() and dropped.
  void Accept(const uint8_t* data, size_t len, std::vector<Complete>* out);

  FrameCounters& counters() { return counters_; }
  const FrameCounters& counters() const { return counters_; }
  size_t pending_partials() const { return partials_.size(); }

 private:
  struct Partial {
    uint32_t src = 0;
    uint32_t frame_id = 0;
    uint32_t total_len = 0;
    uint16_t frag_count = 0;
    uint16_t received = 0;
    uint64_t tick = 0;  ///< Insertion order, for oldest-first eviction.
    std::vector<uint8_t> buf;
    std::vector<bool> have;
  };

  void TrackSeq(const FrameHeader& h);
  Partial* FindOrCreate(const FrameHeader& h);

  uint32_t local_id_;
  uint64_t tick_ = 0;
  std::vector<Partial> partials_;
  std::map<uint32_t, uint64_t> last_seq_;  ///< Highest seq seen per src.
  FrameCounters counters_;
};

}  // namespace net
}  // namespace prestige

#endif  // PRESTIGE_NET_FRAME_H_
