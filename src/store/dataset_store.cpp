#include "store/dataset_store.hpp"

#include <cstring>
#include <fstream>

#include "obs/metrics.hpp"

namespace qgtc::store {

namespace {

template <typename T>
T read_pod(std::istream& in, const std::string& path) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  QGTC_CHECK(static_cast<bool>(in), "store meta file truncated: " + path);
  return v;
}

}  // namespace

DatasetStore DatasetStore::open(const std::string& dir,
                                const StoreOpenOptions& opt) {
  DatasetStore ds;
  const std::string meta_path = dir + "/" + meta_filename();
  std::ifstream meta(meta_path, std::ios::binary);
  QGTC_CHECK(meta.is_open(), "cannot open store meta file: " + meta_path);

  const auto h = read_pod<FileHeader>(meta, meta_path);
  QGTC_CHECK(h.magic == kMetaMagic, "not a QGTC store meta file: " + meta_path);
  QGTC_CHECK(h.version == kStoreVersion,
             "unsupported store format version in: " + meta_path);
  QGTC_CHECK(h.endian == kEndianProbe,
             "store meta endianness mismatch: " + meta_path);

  const u64 name_len = read_pod<u64>(meta, meta_path);
  QGTC_CHECK(name_len < (1u << 20), "implausible dataset name length");
  ds.spec_.name.resize(name_len);
  meta.read(ds.spec_.name.data(), static_cast<std::streamsize>(name_len));
  ds.spec_.num_nodes = read_pod<i64>(meta, meta_path);
  ds.spec_.num_edges = read_pod<i64>(meta, meta_path);
  ds.spec_.feature_dim = read_pod<i64>(meta, meta_path);
  ds.spec_.num_classes = read_pod<i64>(meta, meta_path);
  ds.spec_.num_clusters = read_pod<i64>(meta, meta_path);
  ds.spec_.seed = read_pod<u64>(meta, meta_path);
  const i64 num_chunks = read_pod<i64>(meta, meta_path);
  const i64 nodes_per_shard = read_pod<i64>(meta, meta_path);
  const i64 num_shards = read_pod<i64>(meta, meta_path);
  QGTC_CHECK(num_chunks > 0 && nodes_per_shard > 0 && num_shards > 0,
             "invalid store geometry in: " + meta_path);
  const u64 num_labels = read_pod<u64>(meta, meta_path);
  QGTC_CHECK(static_cast<i64>(num_labels) == ds.spec_.num_nodes,
             "label count mismatch in: " + meta_path);
  ds.labels_.resize(num_labels);
  meta.read(reinterpret_cast<char*>(ds.labels_.data()),
            static_cast<std::streamsize>(num_labels * sizeof(i32)));
  QGTC_CHECK(static_cast<bool>(meta), "store meta file truncated: " + meta_path);

  // CSR shards: each keeps global row_ptr offsets over its node range, so
  // the segments stitch into one CsrView with no translation tables.
  std::vector<CsrView::Segment> segments;
  ds.shards_ = std::make_shared<std::vector<MappedFile>>();
  i64 total_directed_edges = -1;
  for (i64 s = 0; s < num_shards; ++s) {
    const std::string path = dir + "/" + shard_filename(s);
    MappedFile file = MappedFile::open(path);
    QGTC_CHECK(file.size() >= static_cast<i64>(sizeof(ShardHeader)),
               "CSR shard file truncated: " + path);
    ShardHeader sh{};
    std::memcpy(&sh, file.data(), sizeof(sh));
    QGTC_CHECK(sh.file.magic == kShardMagic,
               "bad magic in CSR shard: " + path);
    QGTC_CHECK(sh.file.version == kStoreVersion,
               "unsupported store format version in: " + path);
    QGTC_CHECK(sh.file.endian == kEndianProbe,
               "CSR shard endianness mismatch: " + path);
    QGTC_CHECK(sh.total_nodes == ds.spec_.num_nodes &&
                   sh.first_node == s * nodes_per_shard && sh.num_nodes > 0,
               "CSR shard geometry mismatch: " + path);
    if (total_directed_edges < 0) total_directed_edges = sh.total_edges;
    QGTC_CHECK(sh.total_edges == total_directed_edges,
               "CSR shards disagree on edge count: " + path);

    // The num_nodes + 1 offsets must be in the file before any is read.
    const i64 payload = file.size() - static_cast<i64>(sizeof(ShardHeader));
    QGTC_CHECK(sh.num_nodes < payload / static_cast<i64>(sizeof(i64)),
               "CSR shard offsets truncated: " + path);
    const i64* row_ptr =
        reinterpret_cast<const i64*>(file.data() + sizeof(ShardHeader));
    QGTC_CHECK(row_ptr[0] >= 0 && row_ptr[sh.num_nodes] >= row_ptr[0],
               "CSR shard has a negative edge count: " + path);
    const i64 shard_edges = row_ptr[sh.num_nodes] - row_ptr[0];
    const i64 col_bytes =
        payload - (sh.num_nodes + 1) * static_cast<i64>(sizeof(i64));
    QGTC_CHECK(col_bytes % static_cast<i64>(sizeof(i32)) == 0 &&
                   col_bytes / static_cast<i64>(sizeof(i32)) == shard_edges,
               "CSR shard payload size mismatch: " + path);
    const i32* col_idx = reinterpret_cast<const i32*>(
        file.data() + sizeof(ShardHeader) +
        static_cast<std::size_t>(sh.num_nodes + 1) * sizeof(i64));
    segments.push_back(
        CsrView::Segment{sh.first_node, sh.num_nodes, row_ptr, col_idx});
    ds.csr_mapped_bytes_ += file.size();
    ds.shards_->push_back(std::move(file));
  }
  ds.graph_ = CsrView(ds.spec_.num_nodes, total_directed_edges,
                      std::move(segments));

  ds.features_ = FeatureStore::open(dir, ds.spec_.num_nodes,
                                    ds.spec_.feature_dim, num_chunks);
  ds.features_.set_residency_budget(opt.residency_budget_bytes);
  // Drop the shard mappings in the same residency sweep as the chunks.
  ds.features_.set_extra_release_hook([shards = ds.shards_] {
    for (const MappedFile& f : *shards) f.release_residency();
  });
  obs::MetricsRegistry::instance().gauge("store.mapped_bytes")
      .set(static_cast<double>(ds.mapped_bytes()));
  return ds;
}

}  // namespace qgtc::store
