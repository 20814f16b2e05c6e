#ifndef MDM_NET_CONNECTION_H_
#define MDM_NET_CONNECTION_H_

#include <cstdint>
#include <memory>
#include <string>

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "er/database.h"
#include "net/client.h"
#include "net/exec_options.h"
#include "quel/quel.h"

namespace mdm {

/// The one public client API to the music data manager: issue DDL/QUEL
/// scripts and read ResultSets through the same interface whether the
/// database lives in this process or behind an mdmd server.
///
///   auto conn = mdm::Connection::Local();                 // in-process
///   auto conn = mdm::Connection::Remote("127.0.0.1:7707");// over TCP
///   auto rs = conn.Execute("retrieve (NOTE.name)");
///
/// Execute accepts both languages: scripts starting with `define` or
/// `destroy` run through the DDL layer (the result is a one-row summary
/// of what was defined/destroyed — entity types, relationships,
/// orderings, and secondary indexes); everything else is QUEL. Errors
/// carry a canonical common::ErrorCode either way — remote errors
/// arrive code-intact over the wire (docs/PROTOCOL.md). This class plus
/// the DDL/QUEL string surface IS the public API (DESIGN.md §"Public
/// API"); raw QuelSession/ExecuteDdl use is internal.
///
/// Thread safety matches the underlying session: a Connection is a
/// single client and is not itself thread-safe; create one per thread.
/// Local connections may share one er::Database freely (the PR 4
/// locking stack serializes them); remote connections are independent
/// sockets against a shared server.
class Connection {
 public:
  /// In-process connection owning a fresh empty database.
  static Connection Local();
  /// In-process connection onto an existing database (not owned); the
  /// database must outlive the Connection.
  static Connection Local(er::Database* db);
  /// TCP connection to an mdmd server.
  static Result<Connection> Remote(const std::string& host, uint16_t port,
                                   net::ClientOptions opts = {});
  /// Convenience: "host:port" in one string (mdmsh --connect form).
  static Result<Connection> Remote(const std::string& endpoint,
                                   net::ClientOptions opts = {});

  Connection(Connection&&) noexcept = default;
  Connection& operator=(Connection&&) noexcept = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Executes one DDL or QUEL script, local or remote. `opts` overrides
  /// the connection-wide defaults (deadline, trace sampling, retry
  /// policy) for this call only; a default-constructed ExecOptions
  /// keeps the old single-argument behavior exactly. Local connections
  /// execute inline, so deadline_ms and retry are remote-only knobs.
  Result<quel::ResultSet> Execute(const std::string& script,
                                  const ExecOptions& opts = {});

  /// Executes N scripts as ONE batch — the bulk write surface. All
  /// statements run back-to-back under a single exclusive database
  /// latch acquisition and commit as ONE WAL transaction with one
  /// group-committed fsync; remotely the whole batch is one network
  /// round trip (wire protocol v4). Execution stops at the first
  /// failing statement (its outcome is the last entry in
  /// BatchResult::statements); crash recovery replays the batch
  /// all-or-nothing. Identical semantics over Local() and Remote().
  Result<BatchResult> ExecuteBatch(const std::vector<std::string>& scripts,
                                   const ExecOptions& opts = {});

  /// Liveness probe: trivially OK locally, ping/pong remotely.
  Status Ping();

  bool is_remote() const { return client_ != nullptr; }
  /// The in-process database, or nullptr on a remote connection.
  /// Local-only tooling (mdmsh \schema, \save, ...) gates on this.
  er::Database* local_db() const { return db_; }
  /// The in-process QUEL session, or nullptr on a remote connection.
  /// For tooling/tests that need session-level knobs (ExecuteNaive
  /// ablations, ClearParseCache) — not part of the public
  /// client surface.
  quel::QuelSession* local_session() const { return session_.get(); }

  /// Local connections only: wrap every subsequent Execute in an
  /// always-sampled obs::TraceContext with seeded ids, so `\trace last`
  /// works without a server (the ids land in TraceRing::Global()).
  /// Remote connections trace via ClientOptions::trace_sample_rate
  /// instead; this is a no-op there.
  void EnableLocalTracing(uint64_t seed);

  /// The trace id stamped on the most recent Execute (0 before the
  /// first one, or when tracing is off). Remote: the id sent on the
  /// wire. Local: the id of the trace published to the local ring.
  uint64_t last_trace_id() const;
  /// Whether the most recent Execute was sampled.
  bool last_trace_sampled() const;

 private:
  Connection() = default;

  std::unique_ptr<er::Database> owned_db_;
  er::Database* db_ = nullptr;               // set iff local
  std::unique_ptr<quel::QuelSession> session_;
  std::unique_ptr<net::Client> client_;      // set iff remote
  std::unique_ptr<Rng> local_trace_rng_;     // set iff local tracing on
  uint64_t local_last_trace_id_ = 0;
};

/// The shared local execution path used by Connection::Execute and by
/// the mdmd server for each request: dispatches `script` to the DDL
/// layer (leading keyword `define` or `destroy`) or to `session`.
/// Because the server routes through here, every DDL form — including
/// index DDL — behaves identically over Local() and Remote().
Result<quel::ResultSet> RunScript(er::Database* db,
                                  quel::QuelSession* session,
                                  const std::string& script);

/// The shared batch execution core used by Connection::ExecuteBatch
/// (local) and by the mdmd server for each kBatchExecuteRequest: takes
/// the exclusive latch ONCE, opens one er statement group, dispatches
/// each script (DDL or QUEL) pre-locked, stops at the first failure,
/// commits the group as one WAL transaction, and waits for durability
/// after the latch is released. Returns a non-OK Result only for
/// commit/fsync-level failures; per-statement errors land in
/// BatchResult::statements.
Result<BatchResult> RunBatch(er::Database* db, quel::QuelSession* session,
                             const std::vector<std::string>& scripts);

}  // namespace mdm

#endif  // MDM_NET_CONNECTION_H_
