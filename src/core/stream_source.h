// SnapshotSource implementations over the mmap-backed streaming readers:
// the out-of-core path. The reader's one-pass index answers layer_bbox
// without decoding geometry; read_layer / read_layer_window decode only
// the cells whose placed subtree intersects the request, so a snapshot
// hydrating from one of these never holds more than the requested layer
// resident.
//
// These live in dfm_core (not dfm_snapshot) because they pull in the
// format readers; core/snapshot_source.h stays format-agnostic.
#pragma once

#include "core/snapshot_source.h"
#include "gdsii/gds_stream.h"
#include "oasis/oas_stream.h"

#include <memory>
#include <string>

namespace dfm {

class GdsStreamSource : public SnapshotSource {
 public:
  /// Maps `path`, indexes it, and serves its top cell.
  explicit GdsStreamSource(const std::string& path);
  explicit GdsStreamSource(GdsStreamReader reader);

  const GdsStreamReader& reader() const { return reader_; }

  std::string describe() const override;
  Rect layer_bbox(LayerKey k) const override;
  Region read_layer(LayerKey k) const override;
  Region read_layer_window(LayerKey k, const Rect& window) const override;

 private:
  GdsStreamReader reader_;
  std::uint32_t top_;
  std::string origin_;
};

class OasStreamSource : public SnapshotSource {
 public:
  explicit OasStreamSource(const std::string& path);
  explicit OasStreamSource(OasStreamReader reader);

  const OasStreamReader& reader() const { return reader_; }

  std::string describe() const override;
  Rect layer_bbox(LayerKey k) const override;
  Region read_layer(LayerKey k) const override;
  Region read_layer_window(LayerKey k, const Rect& window) const override;

 private:
  OasStreamReader reader_;
  std::uint32_t top_;
  std::string origin_;
};

/// Opens `path` as a streaming source, picking GDSII or OASIS by file
/// magic ("%SEMI-OASIS" -> OASIS, anything else GDSII). Throws
/// std::runtime_error on I/O errors or malformed input.
std::shared_ptr<const SnapshotSource> open_stream_source(
    const std::string& path);

/// Reads `path` whole into memory, picking GDSII or OASIS by the same
/// file magic as open_stream_source, so an in-memory and a streamed open
/// of one file always agree on its format.
Library read_layout_file(const std::string& path);

}  // namespace dfm
