#include "ic3/ctp_store.hpp"

#include <algorithm>

namespace pilot::ic3 {

void CtpStore::record(const Cube& lemma, std::size_t level, Cube pred,
                      Cube succ) {
  Entry& e = entries_[CubeLevelKey{lemma, level}];
  e.pred = std::move(pred);
  e.succ = std::move(succ);
  e.cursor = log_base_ + log_.size();
}

void CtpStore::log_install(const Cube& lemma, std::size_t level) {
  // With no entry there is no cursor to serve: a later record() starts at
  // the end of the log anyway.
  if (entries_.empty()) return;
  log_.push_back(CubeLevelKey{lemma, level});
}

void CtpStore::erase(const Cube& lemma, std::size_t level) {
  if (entries_.empty()) return;
  entries_.erase(CubeLevelKey{lemma, level});
}

bool CtpStore::witness_holds(const Cube& lemma, std::size_t level) {
  const auto it = entries_.find(CubeLevelKey{lemma, level});
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  const std::size_t end = log_base_ + log_.size();
  for (std::size_t pos = e.cursor; pos < end; ++pos) {
    const CubeLevelKey& installed = log_[pos - log_base_];
    if (installed.level >= level && may_intersect(e.pred, installed.cube)) {
      return false;
    }
  }
  e.cursor = end;
  return true;
}

const CtpStore::Entry* CtpStore::find(const Cube& lemma,
                                      std::size_t level) const {
  const auto it = entries_.find(CubeLevelKey{lemma, level});
  return it == entries_.end() ? nullptr : &it->second;
}

void CtpStore::compact() {
  std::size_t oldest = log_base_ + log_.size();
  for (const auto& [key, e] : entries_) oldest = std::min(oldest, e.cursor);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(oldest - log_base_));
  log_base_ = oldest;
}

bool CtpStore::may_intersect(const Cube& s, const Cube& d) {
  return std::none_of(d.begin(), d.end(),
                      [&](Lit l) { return s.contains(~l); });
}

}  // namespace pilot::ic3
