#include "yield/yield.h"

#include <cmath>

namespace dfm {

double DefectModel::pdf(Coord s) const {
  if (s < x0 || s > xmax) return 0.0;
  // Normalization of s^-k on [x0, xmax].
  const double k = exponent;
  const double a = static_cast<double>(x0);
  const double b = static_cast<double>(xmax);
  double norm;
  if (k == 1.0) {
    norm = std::log(b / a);
  } else {
    norm = (std::pow(a, 1 - k) - std::pow(b, 1 - k)) / (k - 1);
  }
  return std::pow(static_cast<double>(s), -k) / norm;
}

namespace {

// Geometric size grid from x0 to xmax, as the exact doubles the
// trapezoid rule steps over (each point the previous one times `ratio`).
std::vector<double> geometric_grid(const DefectModel& model, int steps) {
  const double a = static_cast<double>(model.x0);
  const double b = static_cast<double>(model.xmax);
  if (steps < 2 || b <= a) return {};
  const double ratio = std::pow(b / a, 1.0 / (steps - 1));
  std::vector<double> grid(static_cast<std::size_t>(steps));
  double s = a;
  grid[0] = s;
  for (std::size_t i = 1; i < grid.size(); ++i) grid[i] = s *= ratio;
  return grid;
}

}  // namespace

std::vector<Coord> defect_size_grid(const DefectModel& model, int steps) {
  std::vector<Coord> sizes;
  for (const double s : geometric_grid(model, steps)) {
    sizes.push_back(static_cast<Coord>(std::llround(s)));
  }
  return sizes;
}

double integrate_critical_area(const std::vector<Area>& ca,
                               const DefectModel& model) {
  // Trapezoidal integration of ca(s) * pdf(s) over the size grid.
  const std::vector<double> grid =
      geometric_grid(model, static_cast<int>(ca.size()));
  if (grid.empty()) return 0.0;
  const auto term = [&](std::size_t i) {
    return static_cast<double>(ca[i]) *
           model.pdf(static_cast<Coord>(std::llround(grid[i])));
  };
  double prev_v = term(0);
  double acc = 0.0;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double v = term(i);
    acc += 0.5 * (prev_v + v) * (grid[i] - grid[i - 1]);
    prev_v = v;
  }
  return acc;
}

double average_critical_area(const std::function<Area(Coord)>& ca,
                             const DefectModel& model, int steps) {
  std::vector<Area> values;
  for (const Coord s : defect_size_grid(model, steps)) values.push_back(ca(s));
  return integrate_critical_area(values, model);
}

double average_short_critical_area(const ShortNets& nets,
                                   const DefectModel& model, int steps,
                                   ThreadPool* pool) {
  return integrate_critical_area(
      short_critical_areas(nets, defect_size_grid(model, steps), pool), model);
}

double poisson_yield(double lambda) { return std::exp(-lambda); }

double negative_binomial_yield(double lambda, double alpha) {
  return std::pow(1.0 + lambda / alpha, -alpha);
}

double layer_lambda(const Region& layer, const DefectModel& model, bool shorts,
                    int steps) {
  if (shorts) {
    return model.lambda(
        average_short_critical_area(ShortNets::of_layer(layer), model, steps));
  }
  return model.lambda(average_critical_area(
      [&layer](Coord s) { return open_critical_area(layer, s); }, model,
      steps));
}

}  // namespace dfm
