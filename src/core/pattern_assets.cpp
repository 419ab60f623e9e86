#include "src/core/pattern_assets.hpp"

#include <algorithm>
#include <bit>

#include "src/antenna/codebook.hpp"

namespace talon {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

void mix_axis(std::uint64_t& h, const Axis& axis) {
  mix_double(h, axis.first);
  mix_double(h, axis.step);
  mix(h, axis.count);
}

}  // namespace

std::uint64_t pattern_table_fingerprint(const PatternTable& table) {
  std::uint64_t h = kFnvOffset;
  if (table.empty()) return h;
  mix_axis(h, table.grid().azimuth);
  mix_axis(h, table.grid().elevation);
  for (int id : table.ids()) {
    mix(h, static_cast<std::uint64_t>(id));
    for (double v : table.pattern(id).values()) mix_double(h, v);
  }
  return h;
}

PatternAssets::PatternAssets(PatternTable patterns, AngularGrid grid,
                             CorrelationDomain domain)
    : patterns_(std::move(patterns)),
      engine_(patterns_, grid, domain),
      tx_candidates_(patterns_.ids()),
      fingerprint_(pattern_table_fingerprint(patterns_)) {
  std::erase(tx_candidates_, kRxQuasiOmniSectorId);
}

std::size_t PatternAssets::shared_bytes() const {
  const std::size_t table_bytes =
      patterns_.size() * patterns_.grid().size() * sizeof(double);
  const ResponseMatrix& matrix = engine_.response_matrix();
  const TileMap& tiles = matrix.tiles();
  const std::size_t matrix_bytes = matrix.values().size() * sizeof(double);
  const std::size_t map_bytes =
      (tiles.point.size() + tiles.column.size() + tiles.tile_slot.size() +
       tiles.fine_min.size() + tiles.coarse_min.size()) *
      sizeof(std::uint32_t);
  const std::size_t directions_bytes = matrix.directions().size() * sizeof(Direction);
  const std::size_t ranking_bytes = matrix.points() * matrix.slots();  // one byte each
  return table_bytes + matrix_bytes + map_bytes + directions_bytes + ranking_bytes;
}

PatternAssetsRegistry& PatternAssetsRegistry::global() {
  static PatternAssetsRegistry registry;
  return registry;
}

std::shared_ptr<const PatternAssets> PatternAssetsRegistry::get_or_create(
    const PatternTable& patterns, const AngularGrid& grid, CorrelationDomain domain) {
  const Key key{pattern_table_fingerprint(patterns), grid, domain};
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(entries_, [](const auto& e) { return e.second.expired(); });
  for (const auto& [k, weak] : entries_) {
    if (k == key) {
      if (auto assets = weak.lock()) return assets;
    }
  }
  // Registry miss: this is the one place the table is copied.
  auto assets = std::make_shared<const PatternAssets>(patterns, grid, domain);
  entries_.emplace_back(key, assets);
  return assets;
}

std::shared_ptr<const PatternAssets> PatternAssetsRegistry::get_or_create(
    PatternTable&& patterns, const AngularGrid& grid, CorrelationDomain domain) {
  const Key key{pattern_table_fingerprint(patterns), grid, domain};
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(entries_, [](const auto& e) { return e.second.expired(); });
  for (const auto& [k, weak] : entries_) {
    if (k == key) {
      if (auto assets = weak.lock()) return assets;
    }
  }
  auto assets = std::make_shared<const PatternAssets>(std::move(patterns), grid, domain);
  entries_.emplace_back(key, assets);
  return assets;
}

std::size_t PatternAssetsRegistry::live_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(entries_, [](const auto& e) { return e.second.expired(); });
  return entries_.size();
}

}  // namespace talon
