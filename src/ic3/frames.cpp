#include "ic3/frames.hpp"

#include <algorithm>

namespace pilot::ic3 {

bool Frames::add_lemma(const Cube& cube, std::size_t level,
                       std::size_t* removed_count) {
  ensure_level(level);
  // Skip if an existing lemma at level ≥ `level` subsumes the new one.
  for (std::size_t j = level; j < delta_.size(); ++j) {
    for (const Cube& d : delta_[j]) {
      if (d.subset_of(cube)) {
        if (removed_count != nullptr) *removed_count = 0;
        return false;
      }
    }
  }
  // Drop existing lemmas at level ≤ `level` that the new one subsumes,
  // together with their stored CTPs.
  std::size_t removed = 0;
  for (std::size_t j = 1; j <= level; ++j) {
    auto& bucket = delta_[j];
    const auto new_end =
        std::remove_if(bucket.begin(), bucket.end(), [&](const Cube& d) {
          if (!cube.subset_of(d)) return false;
          ctps_.erase(d, j);
          return true;
        });
    removed += static_cast<std::size_t>(bucket.end() - new_end);
    bucket.erase(new_end, bucket.end());
  }
  delta_[level].push_back(cube);
  ctps_.log_install(cube, level);
  if (removed_count != nullptr) *removed_count = removed;
  return true;
}

bool Frames::push_lemma(std::size_t level, std::size_t index) {
  auto& bucket = delta_[level];
  const Cube cube = std::move(bucket[index]);
  bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(index));
  ctps_.erase(cube, level);
  return add_lemma(cube, level + 1);
}

std::optional<std::size_t> Frames::blocking_level(const Cube& cube,
                                                  std::size_t level) const {
  for (std::size_t j = delta_.size(); j-- > level;) {
    for (const Cube& d : delta_[j]) {
      if (d.subset_of(cube)) return j;
    }
  }
  return std::nullopt;
}

std::vector<Cube> Frames::parents_of(const Cube& cube,
                                     std::size_t level) const {
  std::vector<Cube> parents;
  if (level == 0 || level >= delta_.size()) return parents;
  for (const Cube& p : delta_[level]) {
    if (p.subset_of(cube)) parents.push_back(p);
  }
  return parents;
}

std::size_t Frames::total_lemmas() const {
  std::size_t n = 0;
  for (const auto& bucket : delta_) n += bucket.size();
  return n;
}

}  // namespace pilot::ic3
