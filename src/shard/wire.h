// Json (de)serialization for the protocol-v4 shard op family. All
// geometry travels as flat integer coordinate arrays (exact by the Json
// integer round-trip guarantee); hotspot severities are doubles and
// round-trip exactly through the serializer's %.17g. The encoding is
// deliberately positional and dense — shard frames carry bulk geometry,
// not hand-edited config.
#pragma once

#include "core/delta.h"
#include "core/hotspot_flow.h"
#include "drc/rules.h"
#include "geometry/region.h"
#include "layout/tech.h"
#include "litho/litho.h"
#include "pattern/capture.h"
#include "pattern/matcher.h"
#include "service/protocol.h"

#include <string>
#include <vector>

namespace dfm::shard {

using service::Json;

/// Shard channels carry whole-window bad regions and per-tile hotspot
/// lists; give them headroom over the interactive service cap.
inline constexpr std::size_t kShardMaxFrameBytes = 64u << 20;

// Rect <-> [x0, y0, x1, y1]
Json rect_to_json(const Rect& r);
Rect rect_from_json(const Json& j);

// Region <-> flat [x0, y0, x1, y1, ...] over its rects.
Json region_to_json(const Region& r);
Region region_from_json(const Json& j);

Json tech_to_json(const Tech& t);
Tech tech_from_json(const Json& j);

Json model_to_json(const OpticalModel& m);
OpticalModel model_from_json(const Json& j);

// Rule subset a width batch needs: {name, layer, value}.
Json rule_to_json(const Rule& r);
Rule rule_from_json(const Json& j);

// AnchorWindow <-> [ax, ay, x0, y0, x1, y1]
Json site_to_json(const AnchorWindow& s);
AnchorWindow site_from_json(const Json& j);

// PatternMatch <-> {rule, window, anchor, exact}
Json match_to_json(const PatternMatch& m);
PatternMatch match_from_json(const Json& j);

// Hotspot <-> {kind, marker, severity}
Json hotspot_to_json(const Hotspot& h);
Hotspot hotspot_from_json(const Json& j);

// RiskPiece <-> {kind, region} (the bbox is the region's)
Json risk_piece_to_json(const RiskPiece& p);
RiskPiece risk_piece_from_json(const Json& j);

// LayerKey <-> [layer, datatype]
Json layer_to_json(LayerKey k);
LayerKey layer_from_json(const Json& j);

// LayoutDelta <-> [{layer, add, remove}, ...]
Json delta_to_json(const LayoutDelta& d);
LayoutDelta delta_from_json(const Json& j);

}  // namespace dfm::shard
