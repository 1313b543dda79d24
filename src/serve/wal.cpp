#include "serve/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/hexfloat.hpp"

namespace maxutil::serve {

namespace fs = std::filesystem;
using maxutil::util::ensure;
using maxutil::util::hex_double;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int open_append(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  } while (fd < 0 && errno == EINTR);
  ensure(fd >= 0, "wal: cannot open '" + path +
                      "': " + std::string(std::strerror(errno)));
  return fd;
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& what) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ensure(false,
             what + ": write failed: " + std::string(std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& what) {
  int rc = 0;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  ensure(rc == 0, what + ": fsync failed: " + std::string(std::strerror(errno)));
}

void fsync_dir(const std::string& dir) {
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return;  // best effort; some filesystems refuse directory fds
  ::fsync(fd);
  ::close(fd);
}

std::string checksum_body(const WalRecord& record) {
  return std::to_string(record.seq) + " " + std::to_string(record.epoch) +
         " " + record.payload;
}

bool parse_wal_line(const std::string& line, WalRecord& out) {
  if (line.rfind("r ", 0) != 0) return false;
  std::size_t at = 2;
  const auto next_token = [&](std::string& token) {
    const std::size_t sp = line.find(' ', at);
    if (sp == std::string::npos) return false;
    token = line.substr(at, sp - at);
    at = sp + 1;
    return !token.empty();
  };
  std::string seq_tok, epoch_tok, sum_tok;
  if (!next_token(seq_tok) || !next_token(epoch_tok) || !next_token(sum_tok)) {
    return false;
  }
  out.payload = line.substr(at);
  char* end = nullptr;
  out.seq = std::strtoull(seq_tok.c_str(), &end, 10);
  if (end != seq_tok.c_str() + seq_tok.size()) return false;
  out.epoch = std::strtoull(epoch_tok.c_str(), &end, 10);
  if (end != epoch_tok.c_str() + epoch_tok.size()) return false;
  const std::uint64_t sum = std::strtoull(sum_tok.c_str(), &end, 16);
  if (end != sum_tok.c_str() + sum_tok.size()) return false;
  return sum == fnv1a64(checksum_body(out));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// tmp + fsync + rename + directory fsync: either the old file or the
/// complete new one survives a crash, never a partial write.
void write_file_durably(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  ensure(fd >= 0, "wal: cannot create '" + tmp +
                      "': " + std::string(std::strerror(errno)));
  write_all(fd, content.data(), content.size(), tmp);
  fsync_fd(fd, tmp);
  ::close(fd);
  ensure(std::rename(tmp.c_str(), path.c_str()) == 0,
         "wal: rename '" + tmp + "' -> '" + path +
             "' failed: " + std::string(std::strerror(errno)));
  fsync_dir(fs::path(path).parent_path().string());
}

/// Byte offset just past the first `lines` newline-terminated lines.
std::size_t offset_after_lines(const std::string& data, std::size_t lines) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::size_t nl = data.find('\n', offset);
    ensure(nl != std::string::npos,
           "wal: decisions.log shorter than its snapshot claims (" +
               std::to_string(lines) + " lines expected)");
    offset = nl + 1;
  }
  return offset;
}

}  // namespace

Wal::Wal(const std::string& path) : fd_(open_append(path)), path_(path) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::append(const WalRecord& record) {
  ensure(record.payload.find('\n') == std::string::npos,
         "wal: payload contains a newline");
  const std::string line = "r " + std::to_string(record.seq) + " " +
                           std::to_string(record.epoch) + " " +
                           hex64(fnv1a64(checksum_body(record))) + " " +
                           record.payload + "\n";
  write_all(fd_, line.data(), line.size(), "wal append");
  last_seq_ = record.seq;
}

void Wal::sync() { fsync_fd(fd_, "wal"); }

std::vector<WalRecord> Wal::read_and_repair(const std::string& path,
                                            std::size_t* truncated_bytes) {
  if (truncated_bytes) *truncated_bytes = 0;
  const std::string data = read_file(path);
  if (data.empty()) return {};
  std::vector<WalRecord> records;
  std::size_t pos = 0;
  std::size_t good_end = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final line
    WalRecord record;
    if (!parse_wal_line(data.substr(pos, nl - pos), record)) break;
    records.push_back(std::move(record));
    pos = nl + 1;
    good_end = pos;
  }
  if (good_end < data.size()) {
    if (truncated_bytes) *truncated_bytes = data.size() - good_end;
    ensure(::truncate(path.c_str(), static_cast<off_t>(good_end)) == 0,
           "wal: truncate '" + path +
               "' failed: " + std::string(std::strerror(errno)));
  }
  return records;
}

Durable::Durable(Daemon& daemon, DurableOptions options)
    : daemon_(&daemon), options_(std::move(options)) {
  ensure(!options_.dir.empty(), "durable: a WAL directory is required");
  fs::create_directories(options_.dir);
  register_metrics();
  load_or_init_meta();
  epoch_ = bump_epoch();
  daemon_->controller().metrics().set(m_epoch_, static_cast<double>(epoch_));
  recover();
}

Durable::~Durable() {
  if (decisions_fd_ >= 0) ::close(decisions_fd_);
}

void Durable::register_metrics() {
  obs::MetricsRegistry& m = daemon_->controller().metrics();
  const auto counter = [&m](const char* name, const char* help) {
    if (const auto id = m.find(name)) return *id;
    return m.counter(name, help);
  };
  m_records_ =
      counter("serve_wal_records_total", "requests appended to the WAL");
  m_replayed_ = counter("serve_wal_replayed_total",
                        "WAL records replayed during recovery");
  m_snapshots_ =
      counter("serve_snapshots_total", "daemon snapshots written durably");
  m_truncated_ = counter("serve_wal_truncated_total",
                         "torn WAL tails truncated at open");
  if (const auto id = m.find("serve_epoch")) {
    m_epoch_ = *id;
  } else {
    m_epoch_ = m.gauge("serve_epoch", "fencing epoch of this incarnation");
  }
}

void Durable::load_or_init_meta() const {
  // Decision-relevant options fingerprint. Deliberately excludes thread
  // count / partitioning (replay is bit-identical across them) and
  // snapshot_every (a replay-time knob, not a decision input).
  const ServeOptions& opts = daemon_->options();
  std::ostringstream meta;
  meta << "maxutil-serve-meta 1\n"
       << "window " << opts.window << "\n"
       << "admit " << hex_double(opts.admit_share) << "\n"
       << "deny " << hex_double(opts.deny_share) << "\n"
       << "max_pending " << opts.max_pending << "\n"
       << "pipeline " << opts.controller.pipeline << "\n";
  const std::string path = options_.dir + "/meta";
  const std::string existing = read_file(path);
  if (existing.empty()) {
    write_file_durably(path, meta.str());
    return;
  }
  ensure(existing == meta.str(),
         "durable: WAL directory '" + options_.dir +
             "' was written with different serve options; refusing to mix "
             "histories (delete the directory or match the options)");
}

std::uint64_t Durable::bump_epoch() const {
  const std::string path = options_.dir + "/epoch";
  std::uint64_t epoch = 0;
  const std::string existing = read_file(path);
  if (!existing.empty()) {
    char* end = nullptr;
    epoch = std::strtoull(existing.c_str(), &end, 10);
    ensure(end != existing.c_str(), "durable: bad epoch file '" + path + "'");
  }
  ++epoch;
  // Persisted before any request is accepted: a fenced predecessor can
  // never have written records carrying this epoch.
  write_file_durably(path, std::to_string(epoch) + "\n");
  return epoch;
}

void Durable::recover() {
  const std::string wal_path = options_.dir + "/wal.log";
  const std::string dec_path = options_.dir + "/decisions.log";
  obs::MetricsRegistry& m = daemon_->controller().metrics();

  std::size_t torn = 0;
  std::vector<WalRecord> records = Wal::read_and_repair(wal_path, &torn);
  if (torn != 0) m.add(m_truncated_);

  // Newest valid snapshot wins; a corrupt or unreadable one falls back to
  // the next (retention keeps two), and with none the whole WAL replays.
  std::vector<std::pair<std::uint64_t, fs::path>> snaps;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 ||
        name.find(".snap") != name.size() - 5) {
      continue;
    }
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(name.c_str() + 9, &end, 10);
    if (std::string(end) != ".snap") continue;
    snaps.emplace_back(seq, entry.path());
  }
  std::sort(snaps.rbegin(), snaps.rend());

  std::uint64_t snap_seq = 0;
  std::size_t snap_decisions = 0;
  bool have_snap = false;
  for (const auto& [seq, path] : snaps) {
    const std::string file = read_file(path.string());
    const std::size_t nl = file.find('\n');
    if (nl == std::string::npos) continue;
    std::istringstream header(file.substr(0, nl));
    std::string magic;
    std::size_t version = 0;
    std::uint64_t file_seq = 0;
    std::size_t decisions = 0;
    std::string sum_tok;
    header >> magic >> version >> file_seq >> decisions >> sum_tok;
    if (magic != "maxutil-serve-snap" || version != 1 || file_seq != seq) {
      continue;
    }
    const std::string body = file.substr(nl + 1);
    char* end = nullptr;
    const std::uint64_t sum = std::strtoull(sum_tok.c_str(), &end, 16);
    if (end != sum_tok.c_str() + sum_tok.size() || sum != fnv1a64(body)) {
      continue;
    }
    try {
      std::istringstream body_in(body);
      daemon_->import_snapshot(body_in);
    } catch (const util::CheckError&) {
      continue;
    }
    snap_seq = seq;
    snap_decisions = decisions;
    have_snap = true;
    break;
  }

  // decisions.log beyond the snapshot's coverage is regenerated by replay;
  // truncating first keeps the persisted prefix + replay exactly equal to
  // the uninterrupted log (and drops any torn final line for free).
  const std::string dec = read_file(dec_path);
  if (!dec.empty() || snap_decisions != 0) {
    const std::size_t keep = offset_after_lines(dec, snap_decisions);
    if (keep < dec.size()) {
      ensure(::truncate(dec_path.c_str(), static_cast<off_t>(keep)) == 0,
             "durable: truncate '" + dec_path +
                 "' failed: " + std::string(std::strerror(errno)));
    }
    prefix_ = dec.substr(0, keep);
    prefix_lines_ = snap_decisions;
  }

  wal_ = std::make_unique<Wal>(wal_path);
  wal_->set_last_seq(
      std::max(records.empty() ? 0 : records.back().seq, snap_seq));
  decisions_fd_ = open_append(dec_path);
  submitted_seq_ = snap_seq;
  recovered_ = have_snap || !records.empty();

  replaying_ = true;
  for (const WalRecord& record : records) {
    if (record.seq <= snap_seq) continue;
    Request request;
    try {
      request = parse_request(record.payload);
    } catch (const util::CheckError&) {
      continue;  // defensive: every appended payload parsed once already
    }
    daemon_->advance_to(request.time());
    persist_settled();
    submitted_seq_ = record.seq;
    try {
      daemon_->submit(request);
    } catch (const util::CheckError&) {
      // The live path answered this with an error line and no decision;
      // replay reproduces the no-decision outcome by skipping it too.
    }
    ++replayed_;
    m.add(m_replayed_);
  }
  persist_settled();
  replaying_ = false;
}

void Durable::submit(const Request& request) {
  // Settle first: if this arrival's timestamp closes the open window, the
  // flush (and any snapshot) happens with nothing pending, *before* the new
  // record exists — so a snapshot at seq S always covers exactly records
  // 1..S, all decided.
  daemon_->advance_to(request.time());
  persist_settled();
  WalRecord record;
  record.seq = wal_->last_seq() + 1;
  record.epoch = epoch_;
  record.payload = request.describe();
  wal_->append(record);
  daemon_->controller().metrics().add(m_records_);
  submitted_seq_ = record.seq;
  // May throw (out-of-order timestamp). The record is already durable and
  // that is correct: replay skips it the same way the live path drops it.
  daemon_->submit(request);
}

void Durable::force_flush() {
  daemon_->flush();
  persist_settled();
}

void Durable::persist_settled() {
  const std::vector<DecisionRecord>& live = daemon_->report().decisions;
  std::string buf;
  for (std::size_t i = persisted_live_; i < live.size(); ++i) {
    buf += live[i].line();
    buf += "\n";
  }
  if (!buf.empty()) {
    write_all(decisions_fd_, buf.data(), buf.size(), "decisions.log");
    persisted_live_ = live.size();
    // Flush point: the fsync-batching boundary (power-loss durability).
    wal_->sync();
    fsync_fd(decisions_fd_, "decisions.log");
    ++flushes_since_snapshot_;
  }
  if (!replaying_ && options_.snapshot_every != 0 &&
      flushes_since_snapshot_ >= options_.snapshot_every &&
      !daemon_->batch_open() && daemon_->pending_count() == 0 &&
      submitted_seq_ != last_snapshot_seq_) {
    write_snapshot();
    flushes_since_snapshot_ = 0;
  }
}

void Durable::write_snapshot() {
  std::ostringstream body;
  daemon_->export_snapshot(body);
  const std::string body_str = body.str();
  std::ostringstream file;
  file << "maxutil-serve-snap 1 " << submitted_seq_ << " "
       << (prefix_lines_ + persisted_live_) << " " << hex64(fnv1a64(body_str))
       << "\n"
       << body_str;
  write_file_durably(
      options_.dir + "/snapshot-" + std::to_string(submitted_seq_) + ".snap",
      file.str());
  last_snapshot_seq_ = submitted_seq_;
  daemon_->controller().metrics().add(m_snapshots_);

  // Retention: the newest two snapshots (survivor + fallback).
  std::vector<std::pair<std::uint64_t, fs::path>> snaps;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) != 0 ||
        name.find(".snap") != name.size() - 5) {
      continue;
    }
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(name.c_str() + 9, &end, 10);
    if (std::string(end) != ".snap") continue;
    snaps.emplace_back(seq, entry.path());
  }
  std::sort(snaps.rbegin(), snaps.rend());
  for (std::size_t i = 2; i < snaps.size(); ++i) {
    std::error_code ec;
    fs::remove(snaps[i].second, ec);
  }
}

std::string Durable::full_decision_log() const {
  return prefix_ + daemon_->report().decision_log();
}

const ServeReport& Durable::finish() {
  const ServeReport& report = daemon_->finish();
  persist_settled();
  wal_->sync();
  fsync_fd(decisions_fd_, "decisions.log");
  return report;
}

}  // namespace maxutil::serve
