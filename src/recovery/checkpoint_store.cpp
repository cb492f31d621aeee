#include "recovery/checkpoint_store.hpp"

#include "common/check.hpp"
#include "recovery/snapshot.hpp"

namespace daop::recovery {

void CheckpointOptions::validate() const {
  DAOP_CHECK_GE(every_steps, 0);
  DAOP_CHECK_GE(every_s, 0.0);
  DAOP_CHECK_GE(keep_generations, 1);
}

CheckpointStore::CheckpointStore(const CheckpointOptions& opt,
                                 sim::Timeline* tl, sim::FaultModel* fault)
    : opt_(opt), tl_(tl), fault_(fault) {
  opt_.validate();
  DAOP_CHECK(tl_ != nullptr);
}

bool CheckpointStore::due(long long request_id, long long step, double now) {
  if (!opt_.enabled()) return false;
  PerRequest& pr = req_[request_id];
  if (!pr.anchored) {
    // First sighting anchors the time trigger at the session's own clock, so
    // cadence is measured from admission, not from simulation time zero.
    pr.anchored = true;
    pr.last_step = 0;
    pr.last_time = now;
  }
  if (opt_.every_steps > 0 && step - pr.last_step >= opt_.every_steps)
    return true;
  if (opt_.every_s > 0.0 && now - pr.last_time >= opt_.every_s) return true;
  return false;
}

double CheckpointStore::write(long long request_id, long long step, double now,
                              std::vector<std::uint8_t> sealed) {
  PerRequest& pr = req_[request_id];
  pr.anchored = true;
  pr.last_step = step;
  pr.last_time = now;

  CheckpointRecord rec;
  rec.request_id = request_id;
  rec.step = step;
  rec.snap_time = now;
  const double cost =
      kCheckpointWriteLatencyS +
      static_cast<double>(sealed.size()) / (kCheckpointWriteGbps * 1e9);
  rec.durable_at = tl_->schedule(sim::Res::PcieD2H, now, cost, "ckpt write");
  rec.bytes = std::move(sealed);

  ++stats_.writes;
  stats_.bytes_written += static_cast<long long>(rec.bytes.size());

  if (fault_ != nullptr && fault_->checkpoint_write_torn()) {
    // Torn write: only a prefix of the frame lands. unseal() rejects it via
    // the length field.
    rec.torn = true;
    rec.bytes.resize(rec.bytes.size() / 2);
    ++stats_.torn_writes;
  } else if (fault_ != nullptr && fault_->checkpoint_corrupted() &&
             !rec.bytes.empty()) {
    // Silent media corruption: one byte flips. unseal() rejects it via the
    // checksum.
    rec.corrupted = true;
    const std::size_t at = static_cast<std::size_t>(
        fault_->checkpoint_entropy() % rec.bytes.size());
    rec.bytes[at] ^= 0x01;
    ++stats_.corrupt_writes;
  }

  pr.gens.push_back(std::move(rec));
  while (static_cast<int>(pr.gens.size()) > opt_.keep_generations)
    pr.gens.pop_front();
  return pr.gens.back().durable_at;
}

const CheckpointRecord* CheckpointStore::latest_valid(
    long long request_id, double now, std::vector<std::uint8_t>* payload) {
  auto it = req_.find(request_id);
  if (it == req_.end()) return nullptr;
  for (auto gen = it->second.gens.rbegin(); gen != it->second.gens.rend();
       ++gen) {
    if (gen->durable_at > now) continue;  // write was in flight at the crash
    std::optional<std::vector<std::uint8_t>> unsealed = unseal(gen->bytes);
    if (unsealed.has_value()) {
      if (payload != nullptr) *payload = std::move(*unsealed);
      return &*gen;
    }
    ++stats_.torn_rejected;
  }
  return nullptr;
}

const std::deque<CheckpointRecord>* CheckpointStore::generations(
    long long request_id) const {
  auto it = req_.find(request_id);
  return it == req_.end() ? nullptr : &it->second.gens;
}

void CheckpointStore::drop(long long request_id) { req_.erase(request_id); }

void CheckpointStore::discard_in_flight(double t) {
  for (auto& [id, pr] : req_) {
    (void)id;
    auto& gens = pr.gens;
    for (auto it = gens.begin(); it != gens.end();) {
      if (it->durable_at > t) {
        ++stats_.torn_writes;
        it = gens.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace daop::recovery
