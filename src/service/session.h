#ifndef RADB_SERVICE_SESSION_H_
#define RADB_SERVICE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "api/database.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "service/admission.h"

namespace radb::service {

class Session;

/// SessionManager-level configuration.
struct ServiceConfig {
  AdmissionConfig admission;
  /// Default QueryOptions for sessions that don't override them per
  /// call (memory budget, deadline, thread override).
  QueryOptions default_options;
};

/// Front door for concurrent access to one Database: hands out
/// Sessions, owns the admission controller (global memory budget +
/// concurrency gate) and the catalog latch that lets DDL and queries
/// interleave safely.
///
/// Catalog latch semantics: scripts consisting only of SELECT /
/// EXPLAIN statements take the latch shared — any number run
/// concurrently. A script containing DDL/DML (CREATE/INSERT/DROP)
/// takes it unique, so it never mutates the catalog or table data
/// under a running reader. This is coarse (whole-script, not
/// per-table) but is what makes "snapshot-consistent" trivially true:
/// a reader sees the catalog state from before or after a writer,
/// never the middle.
///
/// Thread-safe. Sessions must not outlive their manager, and the
/// manager must not outlive the Database.
class SessionManager {
 public:
  /// `db` must outlive the manager. Service metrics go into the
  /// database's own registry when it has one (so they appear in the
  /// same JSON export as exec/mem metrics).
  SessionManager(Database* db, ServiceConfig config = {});
  ~SessionManager() = default;

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// A new session with a fresh id. Sessions are independent handles;
  /// one per client thread is the intended shape, but a Session is
  /// itself thread-safe (Cancel races Execute by design).
  std::unique_ptr<Session> CreateSession();

  Database* database() { return db_; }
  AdmissionController& admission() { return admission_; }
  const ServiceConfig& config() const { return config_; }

 private:
  friend class Session;

  Database* db_;
  ServiceConfig config_;
  AdmissionController admission_;
  /// Readers (SELECT-only scripts) shared, writers (DDL/DML) unique.
  std::shared_mutex catalog_latch_;
  /// Query-latency histogram names are resolved once here.
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* query_seconds_hist_ = nullptr;
  /// Catalog-latch wait distributions, split by acquisition mode, so
  /// reader-vs-writer contention is attributable separately.
  obs::Histogram* latch_read_hist_ = nullptr;
  obs::Histogram* latch_write_hist_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  /// The database's telemetry store (never null): live-session state
  /// for radb_sessions plus records for admission-rejected calls that
  /// never reach Database::Execute.
  obs::TelemetryStore* telemetry_ = nullptr;
  std::atomic<uint64_t> next_session_id_{1};
};

/// One client's handle onto the service. Execute() runs a script
/// through admission, the catalog latch, and the Database, under a
/// per-call CancellationToken; Cancel(seq) fires that token from any
/// thread.
///
/// Query numbering: each Execute call gets the next per-session
/// sequence number (1, 2, ...), returned via the optional out-param
/// and usable with Cancel. Cancelling a sequence number that hasn't
/// started yet pre-arms its token, so a racing Cancel always wins —
/// the call observes Cancelled no matter which side ran first.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs a ';'-separated script with the manager's default options.
  /// `query_seq`, when non-null, receives this call's sequence number
  /// BEFORE execution starts (write it from the submitting thread,
  /// then hand it to a canceller).
  Result<ScriptResult> Execute(const std::string& sql,
                               uint64_t* query_seq = nullptr);
  /// Same, with per-call option overrides. options.cancellation and
  /// options.query_id are ignored (the session supplies both);
  /// options.deadline_ms arms the deadline at SUBMISSION, so it
  /// covers admission-queue wait as well as execution.
  Result<ScriptResult> Execute(const std::string& sql,
                               const QueryOptions& options,
                               uint64_t* query_seq = nullptr);

  /// Fires the cancellation token of query `query_seq`. Unknown or
  /// already-finished sequence numbers pre-arm a token so the call
  /// (if it ever starts) is cancelled on arrival; this is what makes
  /// Cancel race-free against Execute.
  void Cancel(uint64_t query_seq);

  /// Sequence number the NEXT Execute call will get.
  uint64_t next_query_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  uint64_t id() const { return id_; }

 private:
  friend class SessionManager;
  Session(SessionManager* manager, uint64_t id)
      : manager_(manager), id_(id) {}

  /// The token for `seq`, creating it if absent (both Execute and a
  /// pre-cancelling Cancel may be first).
  std::shared_ptr<CancellationToken> TokenFor(uint64_t seq);
  void ForgetToken(uint64_t seq);
  /// True when `s` should count toward service.queries_cancelled (and
  /// the counter exists).
  bool cancelled_counter_bump(const Status& s) const;

  SessionManager* manager_;
  const uint64_t id_;
  std::atomic<uint64_t> next_seq_{1};
  std::mutex tokens_mu_;
  std::map<uint64_t, std::shared_ptr<CancellationToken>> tokens_;
};

}  // namespace radb::service

#endif  // RADB_SERVICE_SESSION_H_
