#include "common/serialize.h"

#include <limits>

namespace netmax {

void Serializer::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void Serializer::WriteU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void Serializer::WriteString(const std::string& value) {
  WriteU64(value.size());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void Serializer::WriteDoubleVec(std::span<const double> values) {
  WriteU64(values.size());
  for (const double v : values) WriteDouble(v);
}

void Serializer::WriteIntVec(std::span<const int> values) {
  WriteU64(values.size());
  for (const int v : values) WriteI64(v);
}

StatusOr<uint32_t> Deserializer::ReadU32() {
  if (remaining() < 4) return OutOfRangeError("truncated input: need 4 bytes");
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

StatusOr<uint64_t> Deserializer::ReadU64() {
  if (remaining() < 8) return OutOfRangeError("truncated input: need 8 bytes");
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

StatusOr<int64_t> Deserializer::ReadI64() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t raw, ReadU64());
  return static_cast<int64_t>(raw);
}

StatusOr<int> Deserializer::ReadInt() {
  NETMAX_ASSIGN_OR_RETURN(const int64_t wide, ReadI64());
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return OutOfRangeError("stored integer does not fit in int");
  }
  return static_cast<int>(wide);
}

StatusOr<bool> Deserializer::ReadBool() {
  NETMAX_ASSIGN_OR_RETURN(const uint32_t raw, ReadU32());
  if (raw > 1) return OutOfRangeError("malformed bool");
  return raw == 1;
}

StatusOr<double> Deserializer::ReadDouble() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t raw, ReadU64());
  return std::bit_cast<double>(raw);
}

StatusOr<std::string> Deserializer::ReadString() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  NETMAX_RETURN_IF_ERROR(CheckCount(size, 1, "string"));
  std::string value(bytes_.begin() + static_cast<ptrdiff_t>(cursor_),
                    bytes_.begin() + static_cast<ptrdiff_t>(cursor_ + size));
  cursor_ += size;
  return value;
}

Status Deserializer::ReadDoubleVec(std::vector<double>* values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  NETMAX_RETURN_IF_ERROR(CheckCount(size, 8, "double vec"));
  values->clear();
  values->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    NETMAX_ASSIGN_OR_RETURN(const double v, ReadDouble());
    values->push_back(v);
  }
  return Status::Ok();
}

Status Deserializer::ReadIntVec(std::vector<int>* values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  NETMAX_RETURN_IF_ERROR(CheckCount(size, 8, "int vec"));
  values->clear();
  values->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    NETMAX_ASSIGN_OR_RETURN(const int v, ReadInt());
    values->push_back(v);
  }
  return Status::Ok();
}

Status Deserializer::ReadDoubleSpan(std::span<double> values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  if (size != values.size()) {
    return OutOfRangeError("stored vector size does not match destination");
  }
  for (double& v : values) {
    NETMAX_ASSIGN_OR_RETURN(v, ReadDouble());
  }
  return Status::Ok();
}

Status Deserializer::CheckCount(uint64_t count, size_t element_bytes,
                                std::string_view what) const {
  if (count > remaining() / element_bytes) {
    return OutOfRangeError("truncated " + std::string(what));
  }
  return Status::Ok();
}

}  // namespace netmax
