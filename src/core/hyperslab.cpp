#include <pmemcpy/core/hyperslab.hpp>

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pmemcpy {

Box intersect(const Box& a, const Box& b) {
  if (a.ndims() != b.ndims()) {
    throw std::invalid_argument("intersect: rank mismatch");
  }
  Box out;
  out.offset.resize(a.ndims());
  out.count.resize(a.ndims());
  for (std::size_t d = 0; d < a.ndims(); ++d) {
    const std::size_t lo = std::max(a.offset[d], b.offset[d]);
    const std::size_t hi =
        std::min(a.offset[d] + a.count[d], b.offset[d] + b.count[d]);
    out.offset[d] = lo;
    out.count[d] = hi > lo ? hi - lo : 0;
  }
  return out;
}

bool contains(const Box& outer, const Box& inner) {
  if (outer.ndims() != inner.ndims()) return false;
  for (std::size_t d = 0; d < outer.ndims(); ++d) {
    if (inner.offset[d] < outer.offset[d]) return false;
    if (inner.offset[d] + inner.count[d] >
        outer.offset[d] + outer.count[d]) {
      return false;
    }
  }
  return true;
}

std::size_t box_linear_index(const Box& box, const Dimensions& coord) {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < box.ndims(); ++d) {
    idx = idx * box.count[d] + (coord[d] - box.offset[d]);
  }
  return idx;
}

namespace {

/// Recursive row-major copy: all dims except the last iterate, the last is a
/// contiguous memcpy run.
void copy_rec(std::byte* dst, const Box& dst_box, const std::byte* src,
              const Box& src_box, const Box& region, std::size_t elem_size,
              Dimensions& coord, std::size_t dim) {
  if (dim + 1 == region.ndims()) {
    coord[dim] = region.offset[dim];
    const std::size_t run = region.count[dim] * elem_size;
    std::memcpy(dst + box_linear_index(dst_box, coord) * elem_size,
                src + box_linear_index(src_box, coord) * elem_size, run);
    return;
  }
  for (std::size_t i = 0; i < region.count[dim]; ++i) {
    coord[dim] = region.offset[dim] + i;
    copy_rec(dst, dst_box, src, src_box, region, elem_size, coord, dim + 1);
  }
}

}  // namespace

void copy_box_region(std::byte* dst, const Box& dst_box, const std::byte* src,
                     const Box& src_box, const Box& region,
                     std::size_t elem_size) {
  if (region.empty()) return;
  if (!contains(dst_box, region) || !contains(src_box, region)) {
    throw std::invalid_argument("copy_box_region: region not contained");
  }
  if (dst_box == region && src_box == region) {
    // Both sides are exactly the region (a symmetric read): one run.
    std::memcpy(dst, src, region.elements() * elem_size);
    return;
  }
  Dimensions coord(region.ndims());
  copy_rec(dst, dst_box, src, src_box, region, elem_size, coord, 0);
}

void for_each_row(
    const Dimensions& global, const Box& box,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (box.empty()) return;
  const std::size_t nd = box.ndims();
  if (global.size() != nd) {
    throw std::invalid_argument("for_each_row: rank mismatch");
  }
  const std::size_t row = box.count[nd - 1];
  // Odometer over all dims but the last.
  Dimensions coord(box.offset);
  std::size_t box_off = 0;
  for (;;) {
    std::size_t lin = 0;
    for (std::size_t d = 0; d < nd; ++d) lin = lin * global[d] + coord[d];
    fn(lin, row, box_off);
    box_off += row;
    // Increment odometer (dims 0..nd-2, last varies fastest).
    if (nd == 1) break;
    std::size_t d = nd - 2;
    for (;;) {
      if (++coord[d] < box.offset[d] + box.count[d]) break;
      coord[d] = box.offset[d];
      if (d == 0) return;
      --d;
    }
  }
}

std::string box_to_string(const Box& box) {
  std::string s;
  for (std::size_t d = 0; d < box.ndims(); ++d) {
    if (d != 0) s += '_';
    s += std::to_string(box.offset[d]);
  }
  s += ':';
  for (std::size_t d = 0; d < box.ndims(); ++d) {
    if (d != 0) s += '_';
    s += std::to_string(box.count[d]);
  }
  return s;
}

Box box_from_string(const std::string& s) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("box_from_string: missing ':' in " + s);
  }
  auto parse_list = [](const std::string& part) {
    Dimensions out;
    std::size_t i = 0;
    while (i < part.size()) {
      std::size_t j = part.find('_', i);
      if (j == std::string::npos) j = part.size();
      out.push_back(std::stoull(part.substr(i, j - i)));
      i = j + 1;
    }
    return out;
  };
  Box box;
  box.offset = parse_list(s.substr(0, colon));
  box.count = parse_list(s.substr(colon + 1));
  if (box.offset.size() != box.count.size()) {
    throw std::invalid_argument("box_from_string: rank mismatch in " + s);
  }
  return box;
}

}  // namespace pmemcpy
