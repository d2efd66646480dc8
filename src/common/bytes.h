// Byte-string utilities and canonical (de)serialization.
//
// Every hashed or signed structure in the system (transactions, block
// headers, AC2T graphs, contract calls) is first converted to a canonical
// little-endian byte encoding via ByteWriter so that hashes and signatures
// are well-defined and reproducible. ByteReader is the Status-returning
// inverse used when validating network messages and evidence.

#ifndef AC3_COMMON_BYTES_H_
#define AC3_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ac3 {

/// Owned byte string; the universal currency between modules.
using Bytes = std::vector<uint8_t>;

/// Lower-case hex encoding of `data` ("" for empty input).
std::string ToHex(const Bytes& data);
/// Hex encoding of an arbitrary buffer.
std::string ToHex(const uint8_t* data, size_t len);

/// Parses lower/upper-case hex. Fails on odd length or non-hex characters.
Result<Bytes> FromHex(const std::string& hex);

/// Builds canonical little-endian encodings. All multi-byte integers are
/// fixed-width little-endian; variable-length fields carry a u32 length
/// prefix. This is intentionally simple and unambiguous — one encoding per
/// value — because the encodings are inputs to SHA-256.
class ByteWriter {
 public:
  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  /// Length-prefixed byte string.
  void PutBytes(const Bytes& b);
  /// Length-prefixed UTF-8 string.
  void PutString(const std::string& s);
  /// Raw bytes with NO length prefix (for fixed-width fields like hashes).
  void PutRaw(const uint8_t* data, size_t len);
  void PutRaw(const Bytes& b);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Status-returning decoder for ByteWriter encodings.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  /// Reads a length-prefixed byte string.
  Result<Bytes> GetBytes();
  /// Reads a length-prefixed string.
  Result<std::string> GetString();
  /// Reads exactly `len` raw bytes.
  Result<Bytes> GetRaw(size_t len);

  /// True when every byte has been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace ac3

#endif  // AC3_COMMON_BYTES_H_
