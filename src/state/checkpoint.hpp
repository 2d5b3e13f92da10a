// checkpoint.hpp — the versioned on-disk checkpoint container (DESIGN.md
// §14): an 8-byte magic, a u32 format version, then a sequence of sections,
// each framed as
//
//   u32 section id (FourCC) · u64 payload length · u32 CRC32(payload) · bytes
//
// The CRC framing is what makes recovery adversarially robust: truncation
// (length runs past the file), bit flips (CRC mismatch), torn headers (short
// magic/version/frame reads) and version skew all surface as state::Error
// from CheckpointReader — never UB — and the CheckpointManager falls back to
// the newest file that still validates end to end.
//
// Durability: write_file_atomic stages the image beside the target
// (temp file + fsync + rename + directory fsync), so a crash mid-write
// leaves either the old checkpoint or the new one, never a torn file. The
// manager retains the last N checkpoints; retention is what turns "newest
// valid" fallback from a nicety into a guarantee.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "state/serial.hpp"

namespace aqua::state {

inline constexpr std::array<std::uint8_t, 8> kMagic{'A', 'Q', 'U', 'A',
                                                    'C', 'K', 'P', 'T'};
/// Bump policy (DESIGN.md §14): increment for any wire-incompatible change;
/// loaders reject versions they do not know rather than guessing. Additive
/// new sections do NOT need a bump — readers ignore unknown section ids.
/// Version 2: the fleet engine section no longer carries the retired shard
/// planner's rebalance count and per-sensor cost estimates.
/// Version 3: the fleet META section no longer carries the retired SIMD batch
/// path's execution-mode byte and lane-width word.
/// Version 4: the fleet FLEN section no longer carries the engine's mirror of
/// each sensor's epoch input and latest sample (the nodes' traces hold them).
inline constexpr std::uint32_t kFormatVersion = 4;

/// Section ids are FourCCs so hexdumps of a checkpoint stay legible.
constexpr std::uint32_t section_id(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the framing integrity check.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);

/// Builds one checkpoint image section by section.
class CheckpointWriter {
 public:
  /// Starts a section; write its payload into the returned Writer. Only one
  /// section may be open at a time.
  Writer& begin_section(std::uint32_t id);
  /// Seals the open section (computes its CRC and frames it).
  void end_section();
  /// The finished image (magic + version + all sealed sections).
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  struct Section {
    std::uint32_t id = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
  Writer current_;
  std::uint32_t current_id_ = 0;
  bool open_ = false;
};

/// Parses and fully validates a checkpoint image up front: magic, version,
/// every frame header, every CRC. Constructor throws state::Error on any
/// defect, so a CheckpointReader that exists is a checkpoint that is whole.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::span<const std::uint8_t> image);

  /// Payload reader for section `id`; throws state::Error if absent.
  [[nodiscard]] Reader section(std::uint32_t id) const;
  [[nodiscard]] bool has_section(std::uint32_t id) const;
  [[nodiscard]] std::uint32_t version() const { return version_; }

 private:
  struct Section {
    std::uint32_t id = 0;
    std::span<const std::uint8_t> payload;
  };
  std::vector<Section> sections_;
  std::uint32_t version_ = 0;
};

/// Writes `data` to `path` atomically: stage to `<path>.tmp`, fsync, rename
/// over the target, fsync the directory. Throws std::runtime_error on any
/// I/O failure (the staged temp file is removed best-effort).
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data);

/// Reads a whole file; throws std::runtime_error when unreadable.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// A successfully validated checkpoint picked by CheckpointManager.
struct LoadedCheckpoint {
  std::string path;
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> image;  ///< already CRC-validated end to end
};

/// Rotating checkpoint store: `<dir>/<stem>-<epoch>.aqcp`, newest `retain`
/// kept, older ones pruned after each successful write. load_newest_valid()
/// scans newest → oldest, skipping (and counting, via the
/// `state.checkpoint.corrupt` counter + a warn log) every file that fails
/// validation — the crash-recovery entry point.
class CheckpointManager {
 public:
  CheckpointManager(std::string dir, std::string stem, std::size_t retain = 3);

  /// Atomically writes one checkpoint image for `epoch` and prunes beyond
  /// the retention window. Returns the path written.
  std::string write(std::uint64_t epoch, std::span<const std::uint8_t> image);

  /// All checkpoint paths for this stem, ascending by epoch.
  [[nodiscard]] std::vector<std::string> list() const;

  /// Newest checkpoint that validates end to end (magic/version/CRCs), or
  /// nullopt when none does. Corrupt candidates are logged and counted,
  /// never thrown.
  [[nodiscard]] std::optional<LoadedCheckpoint> load_newest_valid() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::size_t retain() const { return retain_; }

 private:
  [[nodiscard]] std::string path_for(std::uint64_t epoch) const;

  std::string dir_;
  std::string stem_;
  std::size_t retain_;
};

}  // namespace aqua::state
