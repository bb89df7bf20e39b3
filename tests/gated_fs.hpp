// A test filesystem that parks one kind of operation while its gate is
// shut, so a test can hold a store writer at a chosen point (inside its WAL
// fsync, a seal's blob fsync, or a shard open) and check what readers see
// meanwhile. Gates stack: wrap one GatedFs in another to gate two points.

#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "io/fs.hpp"

namespace neats::testing {

class GatedFs final : public io::FileSystem {
 public:
  /// The operation the gate parks: a file's Sync, or an OpenRead.
  enum class Op { kSync, kOpenRead };

  /// Gates `op` on every path containing `path_part`; starts open.
  GatedFs(io::FileSystem& base, Op op, std::string path_part)
      : base_(base), op_(op), path_part_(std::move(path_part)) {}

  void Shut() {
    std::lock_guard<std::mutex> lk(mu_);
    shut_ = true;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shut_ = false;
    }
    cv_.notify_all();
  }
  /// Waits until `count` operations are parked at the shut gate.
  void AwaitParked(int count = 1) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return parked_ >= count; });
  }

  std::unique_ptr<io::WritableFile> Create(const std::string& path) override {
    return Wrap(path, base_.Create(path));
  }
  std::unique_ptr<io::WritableFile> OpenAppend(
      const std::string& path) override {
    return Wrap(path, base_.OpenAppend(path));
  }
  io::MappedRegion OpenRead(const std::string& path) override {
    if (op_ == Op::kOpenRead && Gated(path)) Park();
    return base_.OpenRead(path);
  }
  bool Exists(const std::string& path) override { return base_.Exists(path); }
  uint64_t FileSize(const std::string& path) override {
    return base_.FileSize(path);
  }
  void Rename(const std::string& from, const std::string& to) override {
    base_.Rename(from, to);
  }
  void Remove(const std::string& path) override { base_.Remove(path); }
  void SyncDir(const std::string& dir) override { base_.SyncDir(dir); }
  void CreateDirs(const std::string& dir) override { base_.CreateDirs(dir); }

 private:
  class GatedFile final : public io::WritableFile {
   public:
    GatedFile(GatedFs& fs, std::unique_ptr<io::WritableFile> file)
        : fs_(fs), file_(std::move(file)) {}
    void Write(std::span<const uint8_t> bytes) override {
      file_->Write(bytes);
    }
    void Sync() override {
      fs_.Park();
      file_->Sync();
    }
    void Close() override { file_->Close(); }

   private:
    GatedFs& fs_;
    std::unique_ptr<io::WritableFile> file_;
  };

  bool Gated(const std::string& path) const {
    return path.find(path_part_) != std::string::npos;
  }

  /// Blocks the calling operation while the gate is shut.
  void Park() {
    std::unique_lock<std::mutex> lk(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !shut_; });
    --parked_;
  }

  std::unique_ptr<io::WritableFile> Wrap(
      const std::string& path, std::unique_ptr<io::WritableFile> file) {
    if (op_ != Op::kSync || !Gated(path)) return file;
    return std::make_unique<GatedFile>(*this, std::move(file));
  }

  io::FileSystem& base_;
  const Op op_;
  const std::string path_part_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shut_ = false;
  int parked_ = 0;
};

}  // namespace neats::testing
