#include "core/stream_source.h"

#include "gdsii/gdsii.h"
#include "geometry/normalized_region.h"
#include "oasis/oasis.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dfm {
namespace {

Region normalized(Region r) {
  (void)NormalizedRegion{r};
  return r;
}

}  // namespace

GdsStreamSource::GdsStreamSource(const std::string& path)
    : reader_(path), top_(reader_.top_cell()), origin_("gds:" + path) {}

GdsStreamSource::GdsStreamSource(GdsStreamReader reader)
    : reader_(std::move(reader)),
      top_(reader_.top_cell()),
      origin_("gds:<bytes>") {}

std::string GdsStreamSource::describe() const { return origin_; }

Rect GdsStreamSource::layer_bbox(LayerKey k) const {
  return reader_.layer_bbox(top_, k);
}

Region GdsStreamSource::read_layer(LayerKey k) const {
  return normalized(reader_.read_layer(top_, k));
}

Region GdsStreamSource::read_layer_window(LayerKey k,
                                          const Rect& window) const {
  return normalized(reader_.read_layer_window(top_, k, window));
}

OasStreamSource::OasStreamSource(const std::string& path)
    : reader_(path), top_(reader_.top_cell()), origin_("oas:" + path) {}

OasStreamSource::OasStreamSource(OasStreamReader reader)
    : reader_(std::move(reader)),
      top_(reader_.top_cell()),
      origin_("oas:<bytes>") {}

std::string OasStreamSource::describe() const { return origin_; }

Rect OasStreamSource::layer_bbox(LayerKey k) const {
  return reader_.layer_bbox(top_, k);
}

Region OasStreamSource::read_layer(LayerKey k) const {
  return normalized(reader_.read_layer(top_, k));
}

Region OasStreamSource::read_layer_window(LayerKey k,
                                          const Rect& window) const {
  return normalized(reader_.read_layer_window(top_, k, window));
}

namespace {

// True when `path` starts with the OASIS magic. Throws
// std::runtime_error when it cannot be opened.
bool has_oasis_magic(const std::string& path) {
  static const char kOasMagic[] = "%SEMI-OASIS";
  char head[sizeof kOasMagic] = {};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  const std::size_t n = std::fread(head, 1, sizeof head - 1, f);
  std::fclose(f);
  return n == sizeof kOasMagic - 1 &&
         std::memcmp(head, kOasMagic, sizeof kOasMagic - 1) == 0;
}

}  // namespace

std::shared_ptr<const SnapshotSource> open_stream_source(
    const std::string& path) {
  if (has_oasis_magic(path)) return std::make_shared<OasStreamSource>(path);
  return std::make_shared<GdsStreamSource>(path);
}

Library read_layout_file(const std::string& path) {
  return has_oasis_magic(path) ? read_oasis_file(path) : read_gdsii_file(path);
}

}  // namespace dfm
