#include <pmemcpy/serial/filter.hpp>

#include <cstring>

namespace pmemcpy::serial {

namespace {

// --- RLE: [count u8][byte] runs; count 1..255 ------------------------------

void rle_encode(std::span<const std::byte> in, std::vector<std::byte>& out) {
  std::size_t i = 0;
  while (i < in.size()) {
    const std::byte b = in[i];
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == b && run < 255) ++run;
    out.push_back(static_cast<std::byte>(run));
    out.push_back(b);
    i += run;
  }
}

void rle_decode(std::span<const std::byte> in, std::span<std::byte> out) {
  if (in.size() % 2 != 0) throw SerialError("rle: truncated stream");
  std::size_t o = 0;
  for (std::size_t i = 0; i < in.size(); i += 2) {
    const auto run = std::to_integer<std::size_t>(in[i]);
    if (run == 0 || o + run > out.size()) {
      throw SerialError("rle: corrupt stream");
    }
    std::memset(out.data() + o, std::to_integer<int>(in[i + 1]), run);
    o += run;
  }
  if (o != out.size()) throw SerialError("rle: short stream");
}

// --- Delta: per-u64 zigzag(delta) varints; byte tail raw --------------------

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t get_varint(std::span<const std::byte> in, std::size_t* pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (*pos >= in.size() || shift > 63) {
      throw SerialError("delta: corrupt varint");
    }
    const auto b = std::to_integer<std::uint8_t>(in[(*pos)++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

void delta_encode(std::span<const std::byte> in, std::vector<std::byte>& out) {
  const std::size_t words = in.size() / 8;
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t cur;
    std::memcpy(&cur, in.data() + w * 8, 8);
    put_varint(out, zigzag(static_cast<std::int64_t>(cur - prev)));
    prev = cur;
  }
  // Raw byte tail (payloads not a multiple of 8).
  out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(words * 8),
             in.end());
}

void delta_decode(std::span<const std::byte> in, std::span<std::byte> out) {
  const std::size_t words = out.size() / 8;
  const std::size_t tail = out.size() - words * 8;
  std::size_t pos = 0;
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < words; ++w) {
    prev += static_cast<std::uint64_t>(unzigzag(get_varint(in, &pos)));
    std::memcpy(out.data() + w * 8, &prev, 8);
  }
  if (in.size() - pos != tail) throw SerialError("delta: bad tail");
  // memcpy with a null pointer is undefined even at length 0.
  if (tail != 0) std::memcpy(out.data() + words * 8, in.data() + pos, tail);
}

void charge_pass(std::size_t in_bytes, std::size_t out_bytes) {
  sim::ctx().charge_cpu_copy(in_bytes + out_bytes);
}

}  // namespace

std::vector<std::byte> filter_encode(FilterId filter,
                                     std::span<const std::byte> in) {
  std::vector<std::byte> out;
  switch (filter) {
    case FilterId::kNone:
      out.assign(in.begin(), in.end());
      break;
    case FilterId::kRle:
      out.reserve(in.size() / 4);
      rle_encode(in, out);
      break;
    case FilterId::kDelta:
      out.reserve(in.size() / 2);
      delta_encode(in, out);
      break;
  }
  charge_pass(in.size(), out.size());
  return out;
}

void filter_decode(FilterId filter, std::span<const std::byte> in,
                   std::span<std::byte> out) {
  switch (filter) {
    case FilterId::kNone:
      if (in.size() != out.size()) throw SerialError("filter: size mismatch");
      if (!in.empty()) std::memcpy(out.data(), in.data(), in.size());
      break;
    case FilterId::kRle:
      rle_decode(in, out);
      break;
    case FilterId::kDelta:
      delta_decode(in, out);
      break;
  }
  charge_pass(in.size(), out.size());
}

}  // namespace pmemcpy::serial
