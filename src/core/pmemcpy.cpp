#include <pmemcpy/pmemcpy.hpp>

#include <pmemcpy/serial/capnp.hpp>

#include <algorithm>
#include <set>

namespace pmemcpy {

namespace detail {

std::uint64_t pack_meta(EntryKind kind, serial::DType dtype,
                        serial::SerializerId ser, serial::FilterId filter) {
  return static_cast<std::uint64_t>(kind) |
         (static_cast<std::uint64_t>(dtype) << 8) |
         (static_cast<std::uint64_t>(ser) << 16) |
         (static_cast<std::uint64_t>(filter) << 24);
}

void unpack_meta(std::uint64_t meta, EntryKind* kind, serial::DType* dtype,
                 serial::SerializerId* ser, serial::FilterId* filter) {
  *kind = static_cast<EntryKind>(meta & 0xFF);
  *dtype = static_cast<serial::DType>((meta >> 8) & 0xFF);
  *ser = static_cast<serial::SerializerId>((meta >> 16) & 0xFF);
  if (filter != nullptr) {
    *filter = static_cast<serial::FilterId>((meta >> 24) & 0xFF);
  }
}

std::string dims_key(const std::string& id) { return id + "#dims"; }

std::string piece_prefix(const std::string& id) { return id + "#p:"; }

std::string piece_key(const std::string& id, const Box& box) {
  return piece_prefix(id) + box_to_string(box);
}

std::string attr_prefix(const std::string& id) { return id + "#attr:"; }

std::string attr_key(const std::string& id, const std::string& name) {
  return attr_prefix(id) + name;
}

std::size_t blob_header_size(serial::SerializerId ser, std::uint32_t ndims) {
  switch (ser) {
    case serial::SerializerId::kBp4:
      return serial::bp4_header_size(ndims);
    case serial::SerializerId::kBinary:
      // Scalars are headerless archive payloads; array pieces carry three
      // vector<u64> fields: varint length (ndims < 128) + raw data.
      return ndims == 0 ? 0
                        : static_cast<std::size_t>(3) * (1 + 8 * ndims);
    case serial::SerializerId::kRaw:
      return 0;
    case serial::SerializerId::kCapnp:
      return serial::capnp_header_size(ndims);
  }
  throw TypeError("pmemcpy: unknown serializer");
}

void write_blob_header(serial::Sink& sink, serial::SerializerId ser,
                       serial::DType dtype, std::uint64_t payload_bytes,
                       const Dimensions& global, const Box& box) {
  switch (ser) {
    case serial::SerializerId::kBp4: {
      serial::VarMeta meta;
      meta.dtype = dtype;
      meta.serializer = ser;
      meta.payload_bytes = payload_bytes;
      meta.global.assign(global.begin(), global.end());
      meta.offset.assign(box.offset.begin(), box.offset.end());
      meta.count.assign(box.count.begin(), box.count.end());
      // A scalar record carries no dimensions.
      if (meta.global.size() != meta.offset.size()) {
        meta.global.resize(meta.offset.size());
      }
      serial::bp4_write_header(sink, meta);
      return;
    }
    case serial::SerializerId::kBinary: {
      if (box.ndims() == 0) return;  // scalars: headerless archive payload
      serial::BinaryWriter w(sink);
      std::vector<std::uint64_t> g(global.begin(), global.end());
      std::vector<std::uint64_t> o(box.offset.begin(), box.offset.end());
      std::vector<std::uint64_t> c(box.count.begin(), box.count.end());
      g.resize(o.size());
      w(g, o, c);
      return;
    }
    case serial::SerializerId::kRaw:
      return;
    case serial::SerializerId::kCapnp: {
      serial::VarMeta meta;
      meta.dtype = dtype;
      meta.payload_bytes = payload_bytes;
      meta.global.assign(global.begin(), global.end());
      meta.offset.assign(box.offset.begin(), box.offset.end());
      meta.count.assign(box.count.begin(), box.count.end());
      if (meta.global.size() != meta.offset.size()) {
        meta.global.resize(meta.offset.size());
      }
      serial::capnp_write_header(sink, meta);
      return;
    }
  }
  throw TypeError("pmemcpy: unknown serializer");
}

}  // namespace detail

namespace {

std::string sanitize_pool_name(const std::string& filename) {
  std::string out = filename;
  std::replace(out.begin(), out.end(), '/', '_');
  return out;
}

std::string fs_root_for(const std::string& filename) {
  return filename.empty() || filename[0] != '/' ? "/" + filename : filename;
}

}  // namespace

void PMEM::do_mmap(const std::string& filename, par::Comm* comm) {
  trace::Span span("core.mmap");
  if (engine_) throw StateError("pmemcpy: already mapped");
  node_ = cfg_.node != nullptr ? cfg_.node : PmemNode::default_node();
  if (node_ == nullptr) {
    throw StateError(
        "pmemcpy: no PmemNode (create one and PmemNode::set_default it, or "
        "set Config::node)");
  }
  comm_ = comm;

  if (cfg_.layout == Layout::kHashTable) {
    engine::PoolEngineOptions eopts;
    eopts.name = sanitize_pool_name(filename);
    eopts.pool_size = cfg_.pool_size;
    eopts.nbuckets = cfg_.nbuckets;
    eopts.auto_grow = cfg_.auto_grow_table;
    eopts.map_sync = cfg_.map_sync;
    eopts.magazine_size = cfg_.magazine_size;
    engine_ = engine::open_pool_engine(*node_, eopts, comm);
  } else {
    engine_ = engine::open_tree_engine(*node_, fs_root_for(filename),
                                       cfg_.map_sync, comm);
  }
  // DRAM read cache (DESIGN.md §13): per-handle and bounded.
  if (cfg_.read_cache_bytes > 0) {
    read_cache_ = std::make_unique<core::ReadCache>(cfg_.read_cache_bytes);
  }
  if (comm != nullptr) comm->barrier();
}

void PMEM::munmap() {
  if (!engine_) throw StateError("pmemcpy: not mapped");
  if (comm_ != nullptr) comm_->barrier();
  piece_cache_.clear();
  read_cache_.reset();  // cached blobs die with the mapping
  open_batch_.reset();  // staged-but-uncommitted entries are discarded
  engine_.reset();
  comm_ = nullptr;
  node_ = nullptr;
  // Health is a property of the mapped region; a fresh mmap starts clean.
  health_ = ft::Health::kHealthy;
  health_status_ = ft::Status::ok();
  damaged_.clear();
}

void PMEM::put_dims(const std::string& id, serial::DType dtype,
                    const Dimensions& dims) {
  // Every rank stores the array's dimensions (the paper's automatic "#dims"
  // entry), so make the operation idempotent: identical content is skipped,
  // and concurrent first writes are first-writer-wins.
  {
    serial::DType existing_dt;
    Dimensions existing;
    if (get_dims(id, &existing_dt, &existing) && existing_dt == dtype &&
        existing == dims) {
      return;
    }
  }
  // Reserve-then-serialize (DESIGN.md §12): size the record with a
  // SizingSink pass, then serialize straight into the reservation — no DRAM
  // staging even for tiny records.
  std::vector<std::uint64_t> d64(dims.begin(), dims.end());
  const std::size_t size =
      serial::binary_serialized_size(static_cast<std::uint8_t>(dtype), d64);
  with_healing(detail::dims_key(id), [&] {
    put_blob(
        detail::dims_key(id), size,
        detail::pack_meta(detail::EntryKind::kDims, dtype,
                          serial::SerializerId::kBinary),
        /*staged=*/false,
        [&](serial::Sink& sink) {
          serial::BinaryWriter w(sink);
          w(static_cast<std::uint8_t>(dtype), d64);
        },
        /*keep_existing=*/true);
  });
}

std::optional<PMEM::FetchedBlob> PMEM::fetch_blob(const std::string& key,
                                                  bool staged,
                                                  std::size_t charge_bytes) {
  if (read_cache_ && !staged) {
    if (const auto* hit = read_cache_->find(key)) {
      FetchedBlob f;
      f.blob = hit->bytes;
      f.meta = hit->meta;
      f.origin = FetchedBlob::Origin::kCache;
      return f;
    }
  }
  auto entry = engine_ref().find(key);
  if (!entry) return std::nullopt;
  const auto info = entry->info();
  const bool fill = read_cache_ != nullptr && !staged && !open_batch_;
  // A fill or a bounce copies the whole blob, so it charges the full read;
  // a plain in-place fetch charges only the slice the caller declared.
  const std::size_t charge = fill || staged
                                 ? info.size
                                 : std::min<std::size_t>(charge_bytes,
                                                         info.size);
  FetchedBlob f;
  f.blob = entry->stored_span(charge);
  f.meta = info.meta;
  f.entry = std::move(entry);
  // Verify before the bytes can reach the cache, the bounce or a
  // deserializer: only CRC-clean blobs are ever decoded or cached.
  if (crc32c(f.blob.data(), f.blob.size()) != detail::meta_crc(f.meta)) {
    throw IntegrityError("checksum mismatch in " + key);
  }
  if (staged) {
    f.staged.assign(f.blob.begin(), f.blob.end());
    f.blob = f.staged;
    f.origin = FetchedBlob::Origin::kStaged;
  } else if (fill) {
    read_cache_->insert(key, f.blob, f.meta);
  }
  return f;
}

bool PMEM::get_dims(const std::string& id, serial::DType* dtype,
                    Dimensions* dims) {
  throw_if_damaged(detail::dims_key(id));
  // Never staged: the ablation stages user data, and put_dims() does not
  // stage the dims record either.
  const auto fetched = fetch_blob(detail::dims_key(id), /*staged=*/false);
  if (!fetched) return false;
  BlobSource src(*fetched, 0);
  serial::BinaryReader r(src);
  std::uint8_t dt = 0;
  std::vector<std::uint64_t> d64;
  r(dt, d64);
  *dtype = static_cast<serial::DType>(dt);
  dims->assign(d64.begin(), d64.end());
  return true;
}

void PMEM::load_dims(const std::string& id, int* ndims, std::size_t* dims) {
  serial::DType dtype;
  Dimensions d;
  if (!get_dims(id, &dtype, &d)) throw KeyError(detail::dims_key(id));
  *ndims = static_cast<int>(d.size());
  std::copy(d.begin(), d.end(), dims);
}

Dimensions PMEM::load_dims(const std::string& id) {
  serial::DType dtype;
  Dimensions d;
  if (!get_dims(id, &dtype, &d)) throw KeyError(detail::dims_key(id));
  return d;
}

bool PMEM::exists(const std::string& id) {
  auto& st = engine_ref();
  if (st.find(id) != nullptr) return true;
  return st.find(detail::dims_key(id)) != nullptr;
}

std::vector<std::string> PMEM::ids() {
  // Dedup through an ordered set: regions hold one entry per rank per
  // variable, so the old linear-scan dedup was quadratic in ranks×vars.
  std::set<std::string> uniq;
  engine_ref().for_each_prefix("", [&](const std::string& key) {
    std::string id = key;
    if (const auto p = id.find("#p:"); p != std::string::npos) {
      id.resize(p);
    } else if (const auto a = id.find("#attr:"); a != std::string::npos) {
      id.resize(a);
    } else if (id.size() >= 5 && id.ends_with("#dims")) {
      id.resize(id.size() - 5);
    }
    uniq.insert(std::move(id));
  });
  return {uniq.begin(), uniq.end()};
}

void PMEM::for_each_raw(
    const std::function<void(const std::string&, std::span<const std::byte>,
                             std::uint64_t)>& fn) {
  auto& st = engine_ref();
  std::vector<std::string> keys;
  st.for_each_prefix("", [&](const std::string& key) { keys.push_back(key); });
  for (const auto& key : keys) {
    auto entry = st.find(key);
    if (!entry) continue;
    fn(key, entry->stored_span(), entry->info().meta);
  }
}

void PMEM::import_raw(const std::string& key, std::span<const std::byte> data,
                      std::uint64_t meta) {
  // The checksum is re-derived from the bytes rather than trusted from the
  // high half of an exported meta word.
  with_healing(key, [&] {
    put_blob(key, data.size(), meta, /*staged=*/false,
             [&](serial::Sink& sink) { sink.write(data.data(), data.size()); });
  });
}

void PMEM::remove(const std::string& id) {
  require_writable(id);
  auto& st = engine_ref();
  bool any = st.erase(id);
  any |= st.erase(detail::dims_key(id));
  // One scan collects both the piece ("<id>#p:") and the attribute
  // ("<id>#attr:") keys under their shared "<id>#" prefix.
  const std::string piece_prefix = detail::piece_prefix(id);
  const std::string attr_prefix = detail::attr_prefix(id);
  std::vector<std::string> keys;
  st.for_each_prefix(id + "#", [&](const std::string& key) {
    if (key.starts_with(piece_prefix) || key.starts_with(attr_prefix)) {
      keys.push_back(key);
    }
  });
  for (const auto& key : keys) any |= st.erase(key);
  invalidate_piece_cache(id);
  if (read_cache_) {
    // Drop every erased binding: the scalar, the dims entry, and each piece
    // and attribute key.
    read_cache_->invalidate(id);
    read_cache_->invalidate(detail::dims_key(id));
    for (const auto& key : keys) read_cache_->invalidate(key);
  }
  if (!any) throw KeyError(id);
}

std::size_t PMEM::examine(
    const std::function<void(const std::string&, const engine::Engine::Entry*,
                             std::span<const std::byte>,
                             const std::string&)>& fn) {
  auto& st = engine_ref();
  // Ordered-set dedupe: a crash can leave a shadowed duplicate of a key
  // inside one chain (an overwrite interrupted between its head store and
  // its unlink, which the key's next put or erase sweeps), for_each_prefix
  // visits both copies, and find() only ever returns the live one — examine
  // (and report, and relocate) each distinct key once.
  std::set<std::string> keys;
  st.for_each_prefix("", [&](const std::string& key) { keys.insert(key); });
  std::size_t examined = 0;
  for (const auto& key : keys) {
    std::unique_ptr<engine::Engine::Entry> entry;
    std::span<const std::byte> blob;
    std::string issue;
    try {
      entry = st.find(key);
      if (!entry) continue;  // concurrently removed
      blob = entry->stored_span();
      if (crc32c(blob.data(), blob.size()) !=
          detail::meta_crc(entry->info().meta)) {
        issue = "checksum mismatch";
      }
    } catch (const pmem::DeviceError& e) {
      issue = std::string("media error: ") + e.what();
    }
    ++examined;
    fn(key, entry.get(), blob, issue);
  }
  return examined;
}

ScrubReport PMEM::scrub() {
  trace::Span span("core.scrub");
  ScrubReport rep;
  rep.entries = examine([&](const std::string& key,
                            const engine::Engine::Entry* entry,
                            std::span<const std::byte>,
                            const std::string& issue) {
    if (!issue.empty()) {
      rep.corrupt.push_back({key, issue, entry ? entry->dev_off() : 0});
    }
  });
  return rep;
}

// --- self-healing (DESIGN.md §10) -------------------------------------------

void PMEM::enter_degraded(const ft::Status& why) {
  if (health_ == ft::Health::kDegraded) return;
  health_ = ft::Health::kDegraded;
  health_status_ = why;
  trace::count(trace::Counter::kFtDegradedTransitions);
}

void PMEM::fail_degraded(const std::string& id, ft::Status why) {
  (void)id;  // already woven into the status detail by the callers
  enter_degraded(why);
  throw ft::DegradedError(std::move(why));
}

void PMEM::heal_put_fault(const std::string& id, const pmem::DeviceError& e,
                          int attempt) {
  if (e.kind == pmem::DeviceError::Kind::kMediaRead) {
    // An uncorrectable read inside a put (metadata probe) is not healable by
    // relocation — the bytes to move are already gone.  Surface it.
    throw;
  }
  if (e.kind == pmem::DeviceError::Kind::kMediaWrite) {
    // e carries the sticky bad-range coordinates (device-absolute).  Fence
    // the range off so the retry reserves on healthy space; the failed
    // attempt's reservation already rolled back during unwinding.
    if (!engine_ref().quarantine(e.off, e.len)) {
      fail_degraded(
          id, ft::Status(ft::ErrorCode::kQuarantineFull,
                         "cannot quarantine bad media range while writing '" +
                             id + "': " + e.what()));
    }
    // Quarantine may relocate future writes anywhere; cached blobs stay
    // byte-correct but the conservative move is to refill from PMEM.
    if (read_cache_) read_cache_->clear();
  }
  if (attempt >= kMaxPutAttempts) {
    fail_degraded(
        id, ft::Status(ft::ErrorCode::kRetryExhausted,
                       "healing write of '" + id + "' still failing after " +
                           std::to_string(attempt) + " attempts: " + e.what()));
  }
  trace::count(trace::Counter::kFtPutRetries);
}

RepairReport PMEM::repair() {
  trace::Span span("core.repair");
  auto& st = engine_ref();
  auto& dev = node_->device();
  RepairReport rep;
  const auto mark_damaged = [&](const std::string& key, std::string issue,
                                std::uint64_t dev_off) {
    rep.damaged.push_back({key, std::move(issue), dev_off});
    damaged_.insert(key);
    trace::count(trace::Counter::kFtDamagedKeys);
  };
  rep.entries = examine([&](const std::string& key,
                            const engine::Engine::Entry* entry,
                            std::span<const std::byte> blob,
                            const std::string& issue) {
    const std::uint64_t dev_off = entry ? entry->dev_off() : 0;
    if (!issue.empty()) {
      // Unreadable or torn: there is nothing intact to relocate.
      mark_damaged(key, issue, dev_off);
      return;
    }
    if (dev_off == 0 || !dev.media_failing(dev_off, blob.size())) {
      return;  // intact and on healthy media
    }
    // Intact bytes on failing media (sticky writes still read back): fence
    // off every bad range under the blob, then republish under the same
    // key.  Crash-safe ordering — the quarantine entries append first, and
    // import_raw replaces the binding atomically, so a crash at any point
    // leaves either the old (still readable) or the new entry.  The old
    // blob stays allocated, and so readable, until the new binding
    // publishes.
    bool fenced = true;
    for (const auto& [soff, slen] : dev.sticky_ranges()) {
      if (soff < dev_off + blob.size() && dev_off < soff + slen) {
        fenced = st.quarantine(soff, slen) && fenced;
      }
    }
    // A full quarantine table cannot fence the range; the republish below
    // may then be allocated right back onto failing media, in which case
    // the write faults and the entry is reported damaged rather than
    // silently left in place.
    try {
      import_raw(key, blob, entry->info().meta);
      ++rep.relocated;
      trace::count(trace::Counter::kFtRelocations);
    } catch (const ft::DegradedError& e) {
      mark_damaged(key,
                   std::string(fenced ? "relocation failed: "
                                      : "relocation failed (unfenced: "
                                        "quarantine table full): ") +
                       e.what(),
                   dev_off);
    }
  });
  // Relocation rewrites bindings and quarantine reshapes the allocatable
  // space; drop every cached blob rather than reasoning about which ones the
  // pass touched.  Correctness first — the cache refills on the next read.
  if (read_cache_) read_cache_->clear();
  return rep;
}

std::vector<std::string> PMEM::attributes(const std::string& id) {
  const std::string prefix = detail::attr_prefix(id);
  std::vector<std::string> names;
  engine_ref().for_each_prefix(prefix, [&](const std::string& key) {
    names.push_back(key.substr(prefix.size()));
  });
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<std::string>& PMEM::piece_keys(const std::string& id) {
  auto it = piece_cache_.find(id);
  if (it != piece_cache_.end()) return it->second;
  std::vector<std::string> keys;
  engine_ref().for_each_prefix(
      detail::piece_prefix(id),
      [&](const std::string& key) { keys.push_back(key); });
  return piece_cache_.emplace(id, std::move(keys)).first->second;
}

}  // namespace pmemcpy
