#pragma once
// Shared-memory ring transport of the policy-decision service, for
// clients co-located with the server (the paper's deployment: the policy
// runs on the device making the decisions, so a socket round-trip is pure
// overhead). A mappable file holds a fixed set of *lanes*; each lane is a
// pair of SPSC byte rings (request: client→server, response:
// server→client) plus a lane-state word a client claims with a CAS.
//
// The bytes inside the rings are the exact CRC-32-framed wire protocol of
// the socket transports (serve/wire.hpp over util/framing.hpp): frames are
// self-delimiting, util::decode_frame is reused verbatim on both sides,
// and the corruption semantics carry over — a frame that fails
// magic/version/length/CRC validation gets an Error frame in the response
// ring and the lane is poisoned (the shm analog of dropping a TCP
// connection, since a byte stream that lost framing cannot be resynced).
//
// Ring memory layout (all offsets 64-byte aligned; ring capacities are
// powers of two):
//
//   ShmSegmentHeader                         magic, version, geometry,
//                                            server_alive flag
//   lane 0: lane-state word (u32 atomic)
//           request  ring  header + data     head/tail u64 atomics on
//           response ring  header + data     separate cache lines
//   lane 1: ...
//
// head/tail are free-running byte counters (head - tail = readable);
// acquire/release pairs make the data copied before a head store visible
// to the consumer that loads it. One producer and one consumer per ring —
// the claiming client and the serving worker — so no further
// synchronization is needed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "serve/client.hpp"
#include "serve/wire.hpp"

namespace pmrl::serve {

inline constexpr char kShmMagic[8] = {'P', 'M', 'R', 'L', 'S', 'H', 'M', '1'};
inline constexpr std::uint32_t kShmVersion = 1;

/// Lane lifecycle: Free -> (client CAS) Claimed -> (client close) Closed
/// -> (server reset) Free. A server that detects corrupt framing moves a
/// Claimed lane to Poisoned; the client's close still moves it to Closed.
enum : std::uint32_t {
  kLaneFree = 0,
  kLaneClaimed = 1,
  kLaneClosed = 2,
  kLanePoisoned = 3,
};

struct alignas(64) ShmSegmentHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t lane_count;
  std::uint64_t ring_bytes;  ///< per direction, per lane; power of two
  std::atomic<std::uint32_t> server_alive;
};

struct alignas(64) ShmRingHeader {
  std::atomic<std::uint64_t> head;  ///< bytes produced (producer-owned)
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;  ///< bytes consumed (consumer-owned)
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
};

struct alignas(64) ShmLaneHeader {
  std::atomic<std::uint32_t> state;
};

/// Non-owning producer/consumer view of one SPSC byte ring.
class ShmRing {
 public:
  ShmRing(ShmRingHeader* header, char* data, std::size_t capacity)
      : header_(header), data_(data), capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// Bytes ready to read (consumer side).
  std::size_t readable() const {
    return header_->head.load(std::memory_order_acquire) -
           header_->tail.load(std::memory_order_relaxed);
  }
  /// Free space (producer side).
  std::size_t writable() const {
    return capacity_ - (header_->head.load(std::memory_order_relaxed) -
                        header_->tail.load(std::memory_order_acquire));
  }

  /// Producer: copies up to `len` bytes in; returns how many fit.
  std::size_t write_some(const char* src, std::size_t len);
  /// Consumer: copies up to `len` bytes out; returns how many were there.
  std::size_t read_some(char* dst, std::size_t len);

  /// Drops all content (lane recycling; only safe with no active peer).
  void reset() {
    header_->head.store(0, std::memory_order_relaxed);
    header_->tail.store(0, std::memory_order_relaxed);
  }

 private:
  ShmRingHeader* header_;
  char* data_;
  std::size_t capacity_;
};

/// One mapped segment. The server create()s (file is truncated and
/// initialized); clients open() and validate the header. The mapping is
/// released on destruction; the creator also unlinks the file.
class ShmSegment {
 public:
  static ShmSegment create(const std::string& path, std::size_t lanes,
                           std::size_t ring_bytes);
  static ShmSegment open(const std::string& path);

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ~ShmSegment();

  /// False after being moved from.
  bool valid() const { return map_ != nullptr; }
  std::size_t lane_count() const { return header()->lane_count; }
  std::size_t ring_bytes() const {
    return static_cast<std::size_t>(header()->ring_bytes);
  }
  const std::string& path() const { return path_; }

  std::atomic<std::uint32_t>& server_alive() {
    return header()->server_alive;
  }
  std::atomic<std::uint32_t>& lane_state(std::size_t lane);
  ShmRing request_ring(std::size_t lane);   ///< client -> server
  ShmRing response_ring(std::size_t lane);  ///< server -> client

  /// Total mapped size for the given geometry.
  static std::size_t segment_size(std::size_t lanes, std::size_t ring_bytes);

 private:
  ShmSegment(std::string path, void* map, std::size_t map_size, bool creator)
      : path_(std::move(path)),
        map_(map),
        map_size_(map_size),
        creator_(creator) {}
  ShmSegmentHeader* header() const {
    return static_cast<ShmSegmentHeader*>(map_);
  }
  char* lane_base(std::size_t lane) const;

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  bool creator_ = false;
};

/// Client for the shm transport. Mirrors serve::Client's surface
/// (query / send_query / recv_response / ping / reload / send_raw), so
/// load generators template over either. Claims one free lane on
/// construction (throws ClientError when the segment is full) and marks
/// it Closed on destruction. Single-threaded, like the socket client.
class ShmClient {
 public:
  explicit ShmClient(const std::string& path);
  ShmClient(ShmClient&&) = default;
  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;
  ~ShmClient();

  Client::Result query(std::uint64_t state, std::uint32_t agent = 0);
  std::uint64_t send_query(std::uint64_t state, std::uint32_t agent = 0);
  ResponseMsg recv_response();
  bool ping(std::uint64_t token = 1);
  bool reload(std::string* error = nullptr);
  /// Raw bytes into the request ring (corruption tests).
  void send_raw(const void* data, std::size_t len);

  std::size_t lane() const { return lane_; }

 private:
  /// Next frame from the response ring; its payload views rx_ and stays
  /// valid until the next call.
  util::Frame read_frame();
  void send_all(const char* data, std::size_t len);

  ShmSegment segment_;
  std::size_t lane_ = 0;
  std::string rx_;
  std::size_t rx_off_ = 0;
  std::uint64_t next_id_ = 1;
  std::deque<ResponseMsg> stashed_;
};

}  // namespace pmrl::serve
