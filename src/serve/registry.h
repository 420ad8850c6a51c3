// Versioned model registry: durable home of every predictor the serving
// stack has trained, with enough metadata to audit (and reverse) each
// promotion decision.
//
// Layout under one root directory:
//   v<id>.ckpt — nn::serialize v2 checkpoint (CRC-32 footer) written through
//                AdaptiveCostPredictor::save (scaler + parameters);
//   v<id>.meta — one `key<TAB>value` line per field: version, watermark_day
//                (latest journal day in the training data), journal_records,
//                approved, rolled_back, gate_gain, gate_json, checkpoint.
//
// The registry is the source of truth across restarts: scan() rebuilds the
// version list from the meta files, latest_approved() identifies the model a
// restarted service should serve (approved, not rolled back), and
// mark_rolled_back() makes a deviance-triggered demotion durable so the bad
// version is never re-promoted. scan() is strict: a numeric field that is not
// wholly a number, or a `quantized<TAB>1` line (an int8 checkpoint published
// by an older build, which this one cannot load), throws an error naming the
// meta file — a registry this build cannot load must not quietly serve an
// older model.
#ifndef LOAM_SERVE_REGISTRY_H_
#define LOAM_SERVE_REGISTRY_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.h"

namespace loam::serve {

struct ModelVersionMeta {
  int version = 0;
  // Latest feedback-journal day inside the training data; the next retrain
  // gates on queries from watermark_day + 1 so evaluation never overlaps
  // training.
  int watermark_day = -1;
  std::uint64_t journal_records = 0;  // executed records trained on
  bool approved = false;
  bool rolled_back = false;
  double gate_gain = 0.0;
  std::string gate_json;        // full DeploymentGateReport::to_json()
  std::string checkpoint_path;  // absolute or root-relative .ckpt path
};

class ModelRegistry {
 public:
  // Creates `root` if needed and scans any existing versions; throws
  // std::runtime_error naming the meta file when one cannot be parsed.
  explicit ModelRegistry(std::string root);

  // Persists checkpoint + metadata under the next version id (meta.version
  // is assigned by the registry) and returns the completed metadata. The
  // checkpoint is written to a temp file and renamed into place, so a crash
  // mid-publish can never leave a meta file pointing at a torn checkpoint.
  ModelVersionMeta publish(const core::AdaptiveCostPredictor& model,
                           ModelVersionMeta meta);

  // Durably flags a version so latest_approved() skips it from now on.
  void mark_rolled_back(int version);

  std::vector<ModelVersionMeta> versions() const;
  std::optional<ModelVersionMeta> find(int version) const;
  // Highest-versioned approved, not-rolled-back entry; nullopt = the service
  // must fall back to the native optimizer.
  std::optional<ModelVersionMeta> latest_approved() const;
  int next_version() const;

  const std::string& root() const { return root_; }

 private:
  void scan();
  void write_meta(const ModelVersionMeta& meta) const;

  std::string root_;
  mutable std::mutex mu_;
  std::vector<ModelVersionMeta> versions_;  // ascending version order
};

}  // namespace loam::serve

#endif  // LOAM_SERVE_REGISTRY_H_
