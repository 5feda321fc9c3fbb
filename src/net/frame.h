// The one length-prefixed framing of the system: vacd and fleet sockets
// and the campaign worker pipes all carry `magic u32 | length u32 |
// payload` little-endian frames. The magic ("AVNF") rejects a
// cross-protocol connect immediately instead of misparsing a length.
//
// Blocking reads and writes serve the clients (and the chaos proxy);
// their deadline is SO_RCVTIMEO/SO_SNDTIMEO on the socket, which
// surfaces here as DeadlineExceeded. A clean EOF before any header byte
// is NotFound ("connection closed"), so a reader can tell an idle
// hang-up from a torn frame. Non-blocking readers (the frame server and
// the campaign supervisor) feed a FrameDecoder instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"

namespace autovac::net {

// "AVNF" little-endian: AutoVac Net Frame.
inline constexpr uint32_t kNetFrameMagic = 0x464E5641;
inline constexpr size_t kNetFrameHeaderSize = 8;
// Payload cap of every frame: protocol messages are JSON requests and
// replies, and 64 MB is far above any realistic vaccine feed page or
// sample report.
inline constexpr size_t kMaxNetFramePayload = 64u << 20;

// Header + payload as raw bytes — what WriteNetFrame puts on the wire.
// The chaos proxy uses this to cut a relayed frame at an exact byte.
[[nodiscard]] std::string EncodeNetFrame(std::string_view payload);

// Writes one frame to a socket or pipe; retries EINTR, maps timeouts to
// DeadlineExceeded, and refuses payloads above kMaxNetFramePayload.
[[nodiscard]] Status WriteNetFrame(int fd, std::string_view payload);

// Reads exactly one frame. The payload buffer grows as bytes arrive, so
// a header that claims more than the peer sends costs only what it sent.
[[nodiscard]] Result<std::string> ReadNetFrame(int fd);

// Incremental frame parser for non-blocking readers: feed whatever the
// fd had, take out however many complete frames arrived. A frame split
// across any number of reads reassembles, pipelined frames in one read
// all come out.
class FrameDecoder {
 public:
  void Append(std::string_view bytes) { buffer_.append(bytes); }

  // Extracts the next complete frame's payload into `*payload`. Returns
  // true when one was extracted, false when more bytes are needed, and
  // InvalidArgument on a malformed header (bad magic / length above the
  // cap) — after which the stream is unrecoverable and should be closed.
  [[nodiscard]] Result<bool> Next(std::string* payload);

  // Bytes buffered but not yet consumed (a flow-control signal: a
  // client that pipelines faster than it reads replies shows up here).
  [[nodiscard]] size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix, compacted opportunistically
};

}  // namespace autovac::net
