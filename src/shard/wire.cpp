#include "shard/wire.h"

namespace dfm::shard {

namespace {

Coord field_coord(const Json& j, const char* key) {
  return static_cast<Coord>(j.get_int(key, 0));
}

}  // namespace

Json rect_to_json(const Rect& r) {
  return Json(Json::Array{Json(r.lo.x), Json(r.lo.y), Json(r.hi.x),
                          Json(r.hi.y)});
}

Rect rect_from_json(const Json& j) {
  const Json::Array& a = j.as_array();
  if (a.size() != 4) throw service::JsonError("rect wants 4 coordinates");
  return Rect{a[0].as_int(), a[1].as_int(), a[2].as_int(), a[3].as_int()};
}

Json region_to_json(const Region& r) {
  Json::Array flat;
  flat.reserve(r.rects().size() * 4);
  for (const Rect& b : r.rects()) {
    flat.emplace_back(b.lo.x);
    flat.emplace_back(b.lo.y);
    flat.emplace_back(b.hi.x);
    flat.emplace_back(b.hi.y);
  }
  return Json(std::move(flat));
}

Region region_from_json(const Json& j) {
  const Json::Array& a = j.as_array();
  if (a.size() % 4 != 0) throw service::JsonError("region wants 4n coords");
  Region out;
  for (std::size_t i = 0; i < a.size(); i += 4) {
    out.add(Rect{a[i].as_int(), a[i + 1].as_int(), a[i + 2].as_int(),
                 a[i + 3].as_int()});
  }
  return out;
}

Json tech_to_json(const Tech& t) {
  Json::Object o;
  o["m1_width"] = Json(t.m1_width);
  o["m1_space"] = Json(t.m1_space);
  o["m1_pitch"] = Json(t.m1_pitch);
  o["m1_min_area"] = Json(t.m1_min_area);
  o["m2_width"] = Json(t.m2_width);
  o["m2_space"] = Json(t.m2_space);
  o["m2_pitch"] = Json(t.m2_pitch);
  o["via_size"] = Json(t.via_size);
  o["via_space"] = Json(t.via_space);
  o["via_enclosure"] = Json(t.via_enclosure);
  o["via_enclosure_end"] = Json(t.via_enclosure_end);
  o["poly_width"] = Json(t.poly_width);
  o["poly_pitch"] = Json(t.poly_pitch);
  o["diff_space"] = Json(t.diff_space);
  o["cell_height"] = Json(t.cell_height);
  o["rail_width"] = Json(t.rail_width);
  o["wide_width"] = Json(t.wide_width);
  o["wide_space"] = Json(t.wide_space);
  o["dpt_space"] = Json(t.dpt_space);
  o["stitch_overlap"] = Json(t.stitch_overlap);
  o["density_tile"] = Json(t.density_tile);
  o["density_min"] = Json(t.density_min);
  o["density_max"] = Json(t.density_max);
  return Json(std::move(o));
}

Tech tech_from_json(const Json& j) {
  Tech t;
  t.m1_width = field_coord(j, "m1_width");
  t.m1_space = field_coord(j, "m1_space");
  t.m1_pitch = field_coord(j, "m1_pitch");
  t.m1_min_area = field_coord(j, "m1_min_area");
  t.m2_width = field_coord(j, "m2_width");
  t.m2_space = field_coord(j, "m2_space");
  t.m2_pitch = field_coord(j, "m2_pitch");
  t.via_size = field_coord(j, "via_size");
  t.via_space = field_coord(j, "via_space");
  t.via_enclosure = field_coord(j, "via_enclosure");
  t.via_enclosure_end = field_coord(j, "via_enclosure_end");
  t.poly_width = field_coord(j, "poly_width");
  t.poly_pitch = field_coord(j, "poly_pitch");
  t.diff_space = field_coord(j, "diff_space");
  t.cell_height = field_coord(j, "cell_height");
  t.rail_width = field_coord(j, "rail_width");
  t.wide_width = field_coord(j, "wide_width");
  t.wide_space = field_coord(j, "wide_space");
  t.dpt_space = field_coord(j, "dpt_space");
  t.stitch_overlap = field_coord(j, "stitch_overlap");
  t.density_tile = field_coord(j, "density_tile");
  if (const Json* v = j.find("density_min")) t.density_min = v->as_double();
  if (const Json* v = j.find("density_max")) t.density_max = v->as_double();
  return t;
}

Json model_to_json(const OpticalModel& m) {
  Json::Object o;
  o["sigma"] = Json(m.sigma);
  o["threshold"] = Json(m.threshold);
  o["px"] = Json(m.px);
  return Json(std::move(o));
}

OpticalModel model_from_json(const Json& j) {
  OpticalModel m;
  m.sigma = field_coord(j, "sigma");
  if (const Json* v = j.find("threshold")) m.threshold = v->as_double();
  m.px = field_coord(j, "px");
  return m;
}

Json rule_to_json(const Rule& r) {
  Json::Object o;
  o["name"] = Json(r.name);
  o["layer"] = layer_to_json(r.layer);
  o["value"] = Json(r.value);
  return Json(std::move(o));
}

Rule rule_from_json(const Json& j) {
  Rule r;
  r.kind = RuleKind::kMinWidth;  // the only distributed kind
  r.name = j.get_string("name", "");
  if (const Json* v = j.find("layer")) r.layer = layer_from_json(*v);
  r.value = field_coord(j, "value");
  return r;
}

Json site_to_json(const AnchorWindow& s) {
  return Json(Json::Array{Json(s.anchor.x), Json(s.anchor.y),
                          Json(s.window.lo.x), Json(s.window.lo.y),
                          Json(s.window.hi.x), Json(s.window.hi.y)});
}

AnchorWindow site_from_json(const Json& j) {
  const Json::Array& a = j.as_array();
  if (a.size() != 6) throw service::JsonError("site wants 6 coordinates");
  AnchorWindow s;
  s.anchor = Point{a[0].as_int(), a[1].as_int()};
  s.window = Rect{a[2].as_int(), a[3].as_int(), a[4].as_int(), a[5].as_int()};
  return s;
}

Json match_to_json(const PatternMatch& m) {
  Json::Object o;
  o["rule"] = Json(static_cast<std::int64_t>(m.rule_index));
  o["window"] = rect_to_json(m.window);
  o["anchor"] = Json(Json::Array{Json(m.anchor.x), Json(m.anchor.y)});
  o["exact"] = Json(m.exact);
  return Json(std::move(o));
}

PatternMatch match_from_json(const Json& j) {
  PatternMatch m;
  m.rule_index = static_cast<std::size_t>(j.get_int("rule", 0));
  if (const Json* v = j.find("window")) m.window = rect_from_json(*v);
  if (const Json* v = j.find("anchor")) {
    const Json::Array& a = v->as_array();
    if (a.size() != 2) throw service::JsonError("anchor wants 2 coordinates");
    m.anchor = Point{a[0].as_int(), a[1].as_int()};
  }
  m.exact = j.get_bool("exact", true);
  return m;
}

Json hotspot_to_json(const Hotspot& h) {
  Json::Object o;
  o["kind"] = Json(h.kind == HotspotKind::kPinch ? 0 : 1);
  o["marker"] = rect_to_json(h.marker);
  o["severity"] = Json(h.severity);
  return Json(std::move(o));
}

Hotspot hotspot_from_json(const Json& j) {
  Hotspot h;
  h.kind = j.get_int("kind", 0) == 0 ? HotspotKind::kPinch
                                     : HotspotKind::kBridge;
  if (const Json* v = j.find("marker")) h.marker = rect_from_json(*v);
  if (const Json* v = j.find("severity")) h.severity = v->as_double();
  return h;
}

Json risk_piece_to_json(const RiskPiece& p) {
  Json::Object o;
  o["kind"] = Json(p.kind == HotspotKind::kPinch ? 0 : 1);
  o["region"] = region_to_json(p.region);
  return Json(std::move(o));
}

RiskPiece risk_piece_from_json(const Json& j) {
  RiskPiece p;
  p.kind = j.get_int("kind", 0) == 0 ? HotspotKind::kPinch
                                     : HotspotKind::kBridge;
  if (const Json* v = j.find("region")) p.region = region_from_json(*v);
  p.bbox = p.region.bbox();
  return p;
}

Json layer_to_json(LayerKey k) {
  return Json(Json::Array{Json(static_cast<std::int64_t>(k.layer)),
                          Json(static_cast<std::int64_t>(k.datatype))});
}

LayerKey layer_from_json(const Json& j) {
  const Json::Array& a = j.as_array();
  if (a.size() != 2) throw service::JsonError("layer wants 2 ints");
  LayerKey k;
  k.layer = static_cast<std::int16_t>(a[0].as_int());
  k.datatype = static_cast<std::int16_t>(a[1].as_int());
  return k;
}

Json delta_to_json(const LayoutDelta& d) {
  Json::Array out;
  for (const auto& [k, ld] : d.layers()) {
    Json::Object o;
    o["layer"] = layer_to_json(k);
    o["add"] = region_to_json(ld.added);
    o["remove"] = region_to_json(ld.removed);
    out.push_back(Json(std::move(o)));
  }
  return Json(std::move(out));
}

LayoutDelta delta_from_json(const Json& j) {
  LayoutDelta d;
  for (const Json& e : j.as_array()) {
    LayerKey k;
    if (const Json* v = e.find("layer")) k = layer_from_json(*v);
    if (const Json* v = e.find("add")) d.add(k, region_from_json(*v));
    if (const Json* v = e.find("remove")) d.remove(k, region_from_json(*v));
  }
  return d;
}

}  // namespace dfm::shard
