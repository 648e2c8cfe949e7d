#include "wire/codec.hpp"

namespace pmc {

void Writer::svarint(std::int64_t v) {
  // Zig-zag: small magnitudes of either sign stay small on the wire.
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::str(const std::string& s) {
  varint(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  varint(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

std::int64_t Reader::svarint() {
  const std::uint64_t raw = varint();
  return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

std::string Reader::str() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw DecodeError("string length beyond input");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void Reader::expect_end() const {
  if (!exhausted()) throw DecodeError("trailing bytes");
}

}  // namespace pmc
