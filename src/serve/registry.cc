#include "serve/registry.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"

namespace loam::serve {

namespace fs = std::filesystem;

namespace {

std::string version_stem(const std::string& root, int version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v%06d", version);
  return (fs::path(root) / buf).string();
}

// gate_json is stored on one line; it contains no newlines by construction
// (obs::JsonWriter emits compact JSON). Tabs cannot appear in any stored
// value either, so `key\tvalue\n` needs no escaping.
void put_line(std::ostream& out, const char* key, const std::string& value) {
  out << key << '\t' << value << '\n';
}

[[noreturn]] void meta_error(const fs::path& file, const std::string& what) {
  throw std::runtime_error("registry meta " + file.string() + ": " + what);
}

// Parses a numeric field that must consume its whole value ("12abc" and ""
// are errors, not 12 and 0).
template <typename T>
T parse_number(const fs::path& file, const std::string& key,
               const std::string& value) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    meta_error(file, "bad " + key + " '" + value + "'");
  }
  return out;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
  scan();
}

void ModelRegistry::scan() {
  std::lock_guard<std::mutex> lock(mu_);
  versions_.clear();
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (entry.path().extension() != ".meta") continue;
    std::ifstream in(entry.path());
    if (!in) continue;
    ModelVersionMeta meta;
    bool have_version = false;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      const std::string key = line.substr(0, tab);
      const std::string value = line.substr(tab + 1);
      if (key == "version") {
        meta.version = parse_number<int>(entry.path(), key, value);
        have_version = true;
      } else if (key == "watermark_day") {
        meta.watermark_day = parse_number<int>(entry.path(), key, value);
      } else if (key == "journal_records") {
        meta.journal_records =
            parse_number<std::uint64_t>(entry.path(), key, value);
      } else if (key == "approved") {
        meta.approved = value == "1";
      } else if (key == "rolled_back") {
        meta.rolled_back = value == "1";
      } else if (key == "quantized") {
        // Written by builds that published int8 checkpoints; this build
        // cannot load one. An explicit fp32 marker still scans.
        if (value != "0") {
          meta_error(entry.path(), "quantized '" + value +
                                       "': int8 checkpoints cannot be loaded");
        }
      } else if (key == "gate_gain") {
        meta.gate_gain = parse_number<double>(entry.path(), key, value);
      } else if (key == "gate_json") {
        meta.gate_json = value;
      } else if (key == "checkpoint") {
        meta.checkpoint_path = value;
      }
    }
    // A meta without a version line (or whose checkpoint vanished) is a
    // partial publish: ignore it rather than resurrect a broken version.
    if (!have_version || !fs::exists(meta.checkpoint_path)) continue;
    versions_.push_back(std::move(meta));
  }
  std::sort(versions_.begin(), versions_.end(),
            [](const ModelVersionMeta& a, const ModelVersionMeta& b) {
              return a.version < b.version;
            });
}

void ModelRegistry::write_meta(const ModelVersionMeta& meta) const {
  const std::string stem = version_stem(root_, meta.version);
  const std::string tmp = stem + ".meta.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write registry meta " + tmp);
    put_line(out, "version", std::to_string(meta.version));
    put_line(out, "watermark_day", std::to_string(meta.watermark_day));
    put_line(out, "journal_records", std::to_string(meta.journal_records));
    put_line(out, "approved", meta.approved ? "1" : "0");
    put_line(out, "rolled_back", meta.rolled_back ? "1" : "0");
    put_line(out, "gate_gain", std::to_string(meta.gate_gain));
    put_line(out, "gate_json", meta.gate_json);
    put_line(out, "checkpoint", meta.checkpoint_path);
    out.flush();
    if (!out) throw std::runtime_error("cannot write registry meta " + tmp);
  }
  fs::rename(tmp, stem + ".meta");
}

ModelVersionMeta ModelRegistry::publish(const core::AdaptiveCostPredictor& model,
                                        ModelVersionMeta meta) {
  static obs::Counter* const c_published =
      obs::Registry::instance().counter("loam.serve.versions_published");
  obs::Span span(obs::Cat::kServe, "registry_publish");
  std::lock_guard<std::mutex> lock(mu_);
  meta.version =
      versions_.empty() ? 1 : versions_.back().version + 1;
  const std::string stem = version_stem(root_, meta.version);
  meta.checkpoint_path = stem + ".ckpt";
  // Checkpoint first (via a temp + rename so the meta can only ever point at
  // a complete file), meta second: a crash between the two leaves an orphan
  // checkpoint, which scan() ignores.
  const std::string tmp_ckpt = meta.checkpoint_path + ".tmp";
  model.save(tmp_ckpt);
  fs::rename(tmp_ckpt, meta.checkpoint_path);
  write_meta(meta);
  versions_.push_back(meta);
  c_published->add();
  return meta;
}

void ModelRegistry::mark_rolled_back(int version) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ModelVersionMeta& meta : versions_) {
    if (meta.version == version) {
      meta.rolled_back = true;
      write_meta(meta);
      return;
    }
  }
}

std::vector<ModelVersionMeta> ModelRegistry::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

std::optional<ModelVersionMeta> ModelRegistry::find(int version) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ModelVersionMeta& meta : versions_) {
    if (meta.version == version) return meta;
  }
  return std::nullopt;
}

std::optional<ModelVersionMeta> ModelRegistry::latest_approved() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
    if (it->approved && !it->rolled_back) return *it;
  }
  return std::nullopt;
}

int ModelRegistry::next_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.empty() ? 1 : versions_.back().version + 1;
}

}  // namespace loam::serve
