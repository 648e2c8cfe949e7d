// Binary wire codec: a compact, explicitly specified encoding so pmcast
// messages can cross real sockets (the simulator passes shared pointers,
// but a deployment serializes). Varint-coded integers, IEEE-754 doubles in
// little-endian byte order, length-prefixed strings.
//
// Decoding is defensive: every read is bounds-checked and malformed input
// raises DecodeError (never UB) — decoders are fed by the network.
//
// The per-field primitives are defined here, inline: a wide membership
// batch is tens of thousands of varints, most of them one byte long.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmc {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what)
      : std::runtime_error("wire decode error: " + what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  /// LEB128-style varint (7 bits per byte, high bit = continue).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Zig-zag varint for signed values.
  void svarint(std::int64_t v);
  void f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i)
      le[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    out_.insert(out_.end(), le, le + 8);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void bytes(std::span<const std::uint8_t> data);

  const std::vector<std::uint8_t>& data() const noexcept { return out_; }
  std::vector<std::uint8_t> take() && { return std::move(out_); }
  std::size_t size() const noexcept { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint64_t varint() {
    // One-byte values (counts, depths, small ids) skip the loop.
    if (pos_ < data_.size() && data_[pos_] < 0x80) return data_[pos_++];
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw DecodeError("varint too long");
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }
  std::int64_t svarint();
  double f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return std::bit_cast<double>(bits);
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw DecodeError("bad boolean");
    return v == 1;
  }
  std::string str();

  bool exhausted() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Throws DecodeError unless all input was consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace pmc
