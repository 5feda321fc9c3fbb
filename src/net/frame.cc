#include "net/frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/faultwire.h"
#include "support/binio.h"
#include "support/strings.h"

namespace autovac::net {
namespace {

// The most ReadNetFrame grows its buffer by before bytes arrive to fill it.
constexpr size_t kReadChunk = 64u << 10;

// Validates an 8-byte header and returns the payload length it claims.
Result<uint32_t> ParseHeader(std::string_view header) {
  BinReader reader{header};
  uint32_t magic = 0;
  uint32_t length = 0;
  (void)reader.U32(&magic);
  (void)reader.U32(&length);
  if (magic != kNetFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (length > kMaxNetFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  return length;
}

Status WriteAll(int fd, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as an EPIPE status,
    // not kill the process with SIGPIPE (the shed path closes without
    // reading, so mid-write hang-ups are an expected overload outcome).
    // WireSend is ::send unless a NetFaultPlan is installed (faultwire.h).
    ssize_t n = WireSend(fd, bytes.data() + written, bytes.size() - written,
                         MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, bytes.data() + written, bytes.size() - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("frame write timed out");
      }
      return Status::Internal(
          StrFormat("frame write failed: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Reads exactly `size` bytes into `out`. `*clean_eof` reports whether EOF
// arrived before the first byte (a clean hang-up, not a torn frame).
Status ReadExact(int fd, char* out, size_t size, bool* clean_eof) {
  *clean_eof = false;
  size_t have = 0;
  while (have < size) {
    const ssize_t n = WireRecv(fd, out + have, size - have);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("frame read timed out");
      }
      return Status::Internal(
          StrFormat("frame read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (have == 0) *clean_eof = true;
      return Status::Internal("connection closed mid-frame");
    }
    have += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeNetFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kNetFrameHeaderSize + payload.size());
  PutU32(frame, kNetFrameMagic);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

Status WriteNetFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxNetFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  return WriteAll(fd, EncodeNetFrame(payload));
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (buffered() < kNetFrameHeaderSize) return false;
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint32_t length,
      ParseHeader(
          std::string_view(buffer_).substr(pos_, kNetFrameHeaderSize)));
  if (buffered() < kNetFrameHeaderSize + length) return false;
  payload->assign(buffer_, pos_ + kNetFrameHeaderSize, length);
  pos_ += kNetFrameHeaderSize + length;
  // Compact once the consumed prefix dominates, so a long-lived
  // connection doesn't hold every frame it ever received.
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Result<std::string> ReadNetFrame(int fd) {
  char header[kNetFrameHeaderSize];
  bool clean_eof = false;
  Status read = ReadExact(fd, header, sizeof(header), &clean_eof);
  if (!read.ok()) {
    if (clean_eof) return Status::NotFound("connection closed");
    return read;
  }
  AUTOVAC_ASSIGN_OR_RETURN(
      const uint32_t length,
      ParseHeader(std::string_view(header, sizeof(header))));
  std::string payload;
  while (payload.size() < length) {
    const size_t have = payload.size();
    payload.resize(have + std::min<size_t>(length - have, kReadChunk));
    AUTOVAC_RETURN_IF_ERROR(ReadExact(fd, payload.data() + have,
                                      payload.size() - have, &clean_eof));
  }
  return payload;
}

}  // namespace autovac::net
