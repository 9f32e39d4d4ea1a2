//===- simbench/simbench.cpp - Simulator host-throughput benchmark --------===//
//
// Part of the WARDen reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how fast the simulator records programs and replays them under
/// several coherence protocols, end to end and layer by layer. A workload is
/// a fixed batch: the fourteen PBBS kernels on one machine preset, replayed
/// under every protocol of the workload for three scheduler seeds, in one
/// process on one simulation thread.
///
/// One *pass* records every kernel (phase 1, SP-bags checker on), writes its
/// trace with writeTaskGraph and reads it back with readTaskGraph, replays
/// the read-back graphs through WardenSystem::compareProtocols (phase 2),
/// and emits a JSON report. An untimed warm-up pass at the pinned seed is
/// checked against the digests committed in digests.json; timed passes at
/// the requested seed then repeat until the time budget is spent, each one
/// checked for PBBS verification, an exact trace round trip, and simulated
/// statistics identical to the first timed pass.
///
/// With --trace 1 the passes alternate between traced (spans recorded around
/// every call into a layer) and untraced, and isolation replays follow: the
/// scheduler over access-free graphs, the controller over the recorded
/// access stream, and private-cache arrays over the block stream. Spans stay
/// in memory and are written to the work directory when the run ends.
///
/// Usage: simbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--scale X] [--digests FILE] [--work DIR]
///                 [--write-digests]
///
//===----------------------------------------------------------------------===//

#include "src/coherence/CoherenceController.h"
#include "src/core/WardenSystem.h"
#include "src/mem/CacheArray.h"
#include "src/obs/CpiStack.h"
#include "src/obs/EventLog.h"
#include "src/obs/Observability.h"
#include "src/obs/SharingProfiler.h"
#include "src/pbbs/Pbbs.h"
#include "src/sched/Replay.h"
#include "src/support/JobPool.h"
#include "src/support/Json.h"
#include "src/trace/TraceIO.h"

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_LTO
#define SIMBENCH_LTO "unknown"
#endif

using namespace warden;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// Scheduler seed base whose simulated statistics are pinned in
/// digests.json: the harnesses' default, so warden_speedup_mean at this seed
/// is the figure harness's reported mean.
constexpr std::uint64_t PinnedSeed = 0x5eed;
/// Scheduler seeds per kernel and protocol. Seed I is Base + 0x1111 * I,
/// the spacing WardenSystem::simulateMedian uses for its repeats.
constexpr unsigned SeedsPerKernel = 3;

//===----------------------------------------------------------------------===//
// Workloads and host tag
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  /// Workloads whose simulated results are identical share a digest set
  /// (attached observability sinks are cycle-identical by contract).
  const char *DigestGroup;
  MachineConfig Machine;
  std::vector<ProtocolKind> Protocols;
  /// Multiplier on every kernel's DefaultScale, as the harnesses' --scale.
  double Scale;
  /// Attach a SharingProfiler, CpiStack and EventLog to each kernel and
  /// protocol's first seed, as --profile --evlog does.
  bool Observed;
  /// The paper's mean WARDen speedup on this machine; 0 when it has none.
  double PaperSpeedup;
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = {
      {"fig7-hitpath", "fig7", MachineConfig::singleSocket(),
       {ProtocolKind::Mesi, ProtocolKind::Warden}, 1.0, false, 1.24},
      {"multinode-lazy", "multinode", MachineConfig::multiNode(2),
       {ProtocolKind::Mesi, ProtocolKind::Warden, ProtocolKind::Sisd,
        ProtocolKind::Racoh},
       0.25, false, 0.0},
      {"fig7-observed", "fig7", MachineConfig::singleSocket(),
       {ProtocolKind::Mesi, ProtocolKind::Warden}, 1.0, true, 1.24},
  };
  return All;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[sizeof(Regs) + 1] = {};
    std::memcpy(Brand, Regs, sizeof(Regs));
    std::string Model(Brand);
    Model.erase(0, Model.find_first_not_of(' '));
    Model.erase(Model.find_last_not_of(' ') + 1);
    if (!Model.empty())
      return Model;
  }
#endif
  return "unknown";
}

/// Where a number was measured; results from different tags are never
/// comparable.
struct HostTag {
  std::string Cpu = cpuModel();
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  std::string Compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  std::string Compiler = std::string("gcc ") + __VERSION__;
#else
  std::string Compiler = "unknown";
#endif
  std::string BuildType = SIMBENCH_BUILD_TYPE;
  std::string Lto = SIMBENCH_LTO;

  void write(JsonWriter &W) const {
    W.beginObject()
        .member("cpu", Cpu)
        .member("nproc", Nproc)
        .member("compiler", Compiler)
        .member("build_type", BuildType)
        .member("lto", Lto)
        .endObject();
  }
  std::string line() const {
    return "cpu=\"" + Cpu + "\" nproc=" + std::to_string(Nproc) +
           " compiler=\"" + Compiler + "\" build=" + BuildType + " lto=" + Lto;
  }
};

//===----------------------------------------------------------------------===//
// Simulated-statistics digest
//===----------------------------------------------------------------------===//

/// Calls Fn(name, value) for the makespan, instruction count, and every
/// CoherenceStats and SchedulerStats counter of \p R. One list serves both
/// the correctness digest and the emitted report.
template <typename FnT> void forEachCounter(const RunResult &R, FnT Fn) {
  const CoherenceStats &C = R.Coherence;
  const SchedulerStats &S = R.Sched;
  Fn("makespan", std::uint64_t(R.Makespan));
  Fn("instructions", std::uint64_t(R.Instructions));
  Fn("peak_regions", std::uint64_t(R.PeakRegions));
#define SIMBENCH_COUNTER(Obj, Field) Fn(#Field, std::uint64_t(Obj.Field))
  SIMBENCH_COUNTER(C, Loads);
  SIMBENCH_COUNTER(C, Stores);
  SIMBENCH_COUNTER(C, Rmws);
  SIMBENCH_COUNTER(C, L1Hits);
  SIMBENCH_COUNTER(C, L2Hits);
  SIMBENCH_COUNTER(C, LlcServes);
  SIMBENCH_COUNTER(C, CacheToCache);
  SIMBENCH_COUNTER(C, DramAccesses);
  SIMBENCH_COUNTER(C, DramWritebacks);
  SIMBENCH_COUNTER(C, L1Accesses);
  SIMBENCH_COUNTER(C, L2Accesses);
  SIMBENCH_COUNTER(C, L3Accesses);
  SIMBENCH_COUNTER(C, Invalidations);
  SIMBENCH_COUNTER(C, Downgrades);
  SIMBENCH_COUNTER(C, MsgsIntraSocket);
  SIMBENCH_COUNTER(C, MsgsInterSocket);
  SIMBENCH_COUNTER(C, MsgsRemote);
  SIMBENCH_COUNTER(C, DataIntraSocket);
  SIMBENCH_COUNTER(C, DataInterSocket);
  SIMBENCH_COUNTER(C, DataRemote);
  SIMBENCH_COUNTER(C, MsgsInterNode);
  SIMBENCH_COUNTER(C, DataInterNode);
  SIMBENCH_COUNTER(C, Evictions);
  SIMBENCH_COUNTER(C, Writebacks);
  SIMBENCH_COUNTER(C, WardRegionAccesses);
  SIMBENCH_COUNTER(C, WardGrants);
  SIMBENCH_COUNTER(C, RegionsAdded);
  SIMBENCH_COUNTER(C, RegionsRemoved);
  SIMBENCH_COUNTER(C, RegionOverflows);
  SIMBENCH_COUNTER(C, RegionFallbacks);
  SIMBENCH_COUNTER(C, ReconciledBlocks);
  SIMBENCH_COUNTER(C, ReconcileWritebacks);
  SIMBENCH_COUNTER(C, SingleHolderReconciles);
  SIMBENCH_COUNTER(C, FalseSharingReconciles);
  SIMBENCH_COUNTER(C, TrueSharingReconciles);
  SIMBENCH_COUNTER(C, RejectedAccesses);
  SIMBENCH_COUNTER(C, InjectedEvictions);
  SIMBENCH_COUNTER(C, ForcedReconciles);
  SIMBENCH_COUNTER(C, LogRecordsPublished);
  SIMBENCH_COUNTER(C, LogRecordsConsumed);
  SIMBENCH_COUNTER(C, LogPublishes);
  SIMBENCH_COUNTER(C, LogBackpressureStalls);
  SIMBENCH_COUNTER(C, LogInvalidations);
  SIMBENCH_COUNTER(C, PreInvalidateAvoided);
  SIMBENCH_COUNTER(C, CrossNodeHops);
  SIMBENCH_COUNTER(C, LogQueuePeakOccupancy);
  SIMBENCH_COUNTER(S, StrandsExecuted);
  SIMBENCH_COUNTER(S, Steals);
  SIMBENCH_COUNTER(S, FailedSteals);
  SIMBENCH_COUNTER(S, Instructions);
  SIMBENCH_COUNTER(S, StealProbes);
  SIMBENCH_COUNTER(S, StoreStallCycles);
  SIMBENCH_COUNTER(S, RegionInstrCycles);
  SIMBENCH_COUNTER(S, SyncCycles);
#undef SIMBENCH_COUNTER
}

/// FNV-1a over every counter forEachCounter() lists.
std::uint64_t digestOf(const RunResult &R) {
  std::uint64_t Hash = 0xcbf29ce484222325ULL;
  forEachCounter(R, [&Hash](const char *, std::uint64_t Value) {
    for (unsigned Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  });
  return Hash;
}

using DigestSet = std::map<std::string, std::uint64_t>;

std::string digestSetKey(const Workload &W, double Scale) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%s@%g", W.DigestGroup, Scale);
  return Buf;
}

/// Every digest set in \p Path, keyed by set name; empty if the file does
/// not exist yet.
bool loadDigestFile(const std::string &Path,
                    std::map<std::string, DigestSet> &Sets,
                    std::string &Error) {
  if (!fs::exists(Path))
    return true;
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Text;
  Text << In.rdbuf();
  std::optional<JsonValue> Doc = jsonParse(Text.str(), &Error);
  if (!Doc) {
    Error = Path + ": " + Error;
    return false;
  }
  const JsonValue *Seed = Doc->get("pinned_seed");
  const JsonValue *All = Doc->get("sets");
  if (!Seed || !Seed->isNumber() ||
      Seed->Number != static_cast<double>(PinnedSeed) || !All ||
      !All->isObject()) {
    Error = Path + ": not a digest file for pinned seed " +
            std::to_string(PinnedSeed);
    return false;
  }
  for (const auto &[SetName, Entries] : All->Object) {
    DigestSet &Set = Sets[SetName];
    for (const auto &[Key, Hex] : Entries.Object) {
      char *End = nullptr;
      std::uint64_t Value = std::strtoull(Hex.String.c_str(), &End, 16);
      if (!Hex.isString() || Hex.String.empty() || *End != '\0') {
        Error = Path + ": bad digest for " + SetName + " " + Key;
        return false;
      }
      Set[Key] = Value;
    }
  }
  return true;
}

bool writeDigestFile(const std::string &Path,
                     const std::map<std::string, DigestSet> &Sets) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\n  \"schema\": \"simbench-digests-v1\",\n");
  std::fprintf(Out, "  \"pinned_seed\": %" PRIu64 ",\n  \"sets\": {",
               PinnedSeed);
  const char *SetSep = "\n";
  for (const auto &[SetName, Set] : Sets) {
    std::fprintf(Out, "%s    \"%s\": {", SetSep, SetName.c_str());
    const char *Sep = "\n";
    for (const auto &[Key, Value] : Set) {
      std::fprintf(Out, "%s      \"%s\": \"%016" PRIx64 "\"", Sep, Key.c_str(),
                   Value);
      Sep = ",\n";
    }
    std::fprintf(Out, "\n    }");
    SetSep = ",\n";
  }
  std::fprintf(Out, "\n  }\n}\n");
  return std::fclose(Out) == 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. time() measures a call either way; while
/// Enabled it also records a span (name, start, end, parent span, and the
/// kernel x protocol x seed simulation it belongs to).
class Tracer {
public:
  static constexpr std::uint32_t None = ~0u;

  bool Enabled = false;

  template <typename FnT>
  double time(std::string Name, std::uint32_t Sim, FnT &&Fn) {
    std::uint32_t Id = None;
    if (Enabled) {
      Id = static_cast<std::uint32_t>(Spans.size());
      Spans.push_back({std::move(Name), Open.empty() ? None : Open.back(),
                       Sim, 0.0, 0.0});
      Open.push_back(Id);
    }
    Clock::time_point Start = Clock::now();
    Fn();
    Clock::time_point End = Clock::now();
    if (Id != None) {
      Spans[Id].Start = std::chrono::duration<double>(Start - Origin).count();
      Spans[Id].End = std::chrono::duration<double>(End - Origin).count();
      Open.pop_back();
    }
    return std::chrono::duration<double>(End - Start).count();
  }

  std::uint32_t newSim() { return NextSim++; }

  bool write(const fs::path &Path, const HostTag &Host) const {
    JsonWriter W;
    W.beginObject().member("schema", "simbench-spans-v1").key("host");
    Host.write(W);
    W.key("spans").beginArray();
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      W.beginObject().member("id", std::uint64_t(I)).member("name", S.Name);
      W.key("parent");
      if (S.Parent == None)
        W.null();
      else
        W.value(std::uint64_t(S.Parent));
      W.key("sim");
      if (S.Sim == None)
        W.null();
      else
        W.value(std::uint64_t(S.Sim));
      W.member("start_s", S.Start).member("end_s", S.End).endObject();
    }
    W.endArray().endObject();
    std::ofstream Out(Path, std::ios::binary);
    Out << W.str() << '\n';
    return static_cast<bool>(Out);
  }

private:
  struct Span {
    std::string Name;
    std::uint32_t Parent;
    std::uint32_t Sim;
    double Start;
    double End;
  };
  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<std::uint32_t> Open;
  std::uint32_t NextSim = 0;
};

//===----------------------------------------------------------------------===//
// One pass: record, round-trip, simulate, emit
//===----------------------------------------------------------------------===//

struct Kernel {
  std::string Name;
  TaskGraph Graph; ///< The graph read back from the trace file.
  bool Verified = false;
  bool RoundTrip = false;
};

struct Sim {
  std::size_t Kernel = 0;
  ProtocolKind Protocol = ProtocolKind::Mesi;
  unsigned SeedIndex = 0;
  bool Ran = false;
  bool SinkOk = true; ///< The attached event log (if any) wrote cleanly.
  RunResult Result;
};

struct Pass {
  double RecordS = 0, WriteS = 0, ReadS = 0, SimulateS = 0, EmitS = 0;
  std::uint64_t RecordedEvents = 0, TraceBytes = 0, Accesses = 0;
  std::map<ProtocolKind, double> SimulateByProtocol;
  double SpeedupMean = 0;
  bool Traced = false;
  std::vector<Kernel> Kernels;
  std::vector<Sim> Sims;

  double setupS() const { return RecordS + WriteS + ReadS; }
  double wallS() const { return setupS() + SimulateS + EmitS; }
};

bool sameGraph(const TaskGraph &A, const TaskGraph &B) {
  if (A.size() != B.size() || A.root() != B.root())
    return false;
  for (StrandId Id = 0; Id < A.size(); ++Id) {
    const Strand &X = A.strand(Id);
    const Strand &Y = B.strand(Id);
    if (X.Children != Y.Children || X.JoinTarget != Y.JoinTarget ||
        X.PendingJoin != Y.PendingJoin ||
        X.JoinCounterAddr != Y.JoinCounterAddr ||
        X.Events.size() != Y.Events.size())
      return false;
    for (std::size_t I = 0; I < X.Events.size(); ++I) {
      const TraceEvent &E = X.Events[I];
      const TraceEvent &F = Y.Events[I];
      if (E.Address != F.Address || E.Extra != F.Extra ||
          E.Region != F.Region || E.Op != F.Op || E.Size != F.Size)
        return false;
    }
  }
  const MemoryMap &M = A.memoryMap();
  const MemoryMap &N = B.memoryMap();
  if (M.spans() != N.spans() || M.siteCount() != N.siteCount())
    return false;
  for (std::uint32_t Site = 0; Site < M.siteCount(); ++Site)
    if (M.siteName(Site) != N.siteName(Site))
      return false;
  return true;
}

std::uint64_t fileBytes(const fs::path &Path) {
  std::error_code Ec;
  std::uintmax_t Size = fs::file_size(Path, Ec);
  return Ec ? 0 : static_cast<std::uint64_t>(Size);
}

void removeFile(const fs::path &Path) {
  std::error_code Ec;
  fs::remove(Path, Ec);
}

/// Phase 1 for every kernel: record, write the trace, read it back.
void recordKernels(double Scale, Tracer &T, const fs::path &Work, Pass &P) {
  for (const pbbs::Benchmark &Bm : pbbs::allBenchmarks()) {
    auto Size = std::max<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(Bm.DefaultScale) * Scale),
        4);
    pbbs::Recorded Rec;
    P.RecordS += T.time("pbbs.record", Tracer::None,
                        [&] { Rec = Bm.Record(Size, RtOptions()); });
    fs::path File = Work / (std::string("trace.") + Bm.Name + ".bin");
    bool Wrote = false;
    P.WriteS += T.time("trace.write", Tracer::None, [&] {
      Wrote = writeTaskGraph(Rec.Graph, File.string());
    });
    std::optional<TaskGraph> Back;
    P.ReadS += T.time("trace.read", Tracer::None,
                      [&] { Back = readTaskGraph(File.string()); });
    P.TraceBytes += fileBytes(File);
    removeFile(File);

    Kernel K;
    K.Name = Bm.Name;
    K.Verified = Rec.Verified;
    K.RoundTrip = Wrote && Back && sameGraph(Rec.Graph, *Back);
    P.RecordedEvents += Rec.Graph.totalEvents();
    if (Back)
      K.Graph = std::move(*Back);
    P.Kernels.push_back(std::move(K));
  }
}

/// One simulation: a single protocol under a single seed, through the
/// public comparison entry point.
RunResult simulateOne(const TaskGraph &Graph, const Workload &W,
                      ProtocolKind Protocol, std::uint64_t Seed,
                      Observability *Obs) {
  RunOptions Options;
  Options.Seed = Seed;
  Options.Repeats = 1;
  Options.Obs = Obs;
  return WardenSystem::compareProtocols(Graph, W.Machine, {Protocol}, Options)
      .Runs.front();
}

std::uint64_t seedOf(std::uint64_t Base, unsigned Index) {
  return Base + 0x1111ULL * Index;
}

/// Phase 2: every kernel x seed x protocol of the workload.
void simulateKernels(const Workload &W, std::uint64_t Seed, Tracer &T,
                     const fs::path &Work, Pass &P) {
  SharingProfiler Profiler;
  CpiStack Cpi;
  EventLog Log;
  Observability Bundle;
  if (W.Observed) {
    Bundle.Profiler = &Profiler;
    Bundle.Cpi = &Cpi;
    Bundle.Log = &Log;
  }
  for (std::size_t KI = 0; KI < P.Kernels.size(); ++KI) {
    const Kernel &K = P.Kernels[KI];
    if (W.Observed) {
      Log.configure((Work / ("evlog." + K.Name)).string());
      Log.setRunLabel(K.Name);
    }
    for (unsigned S = 0; S < SeedsPerKernel; ++S) {
      for (ProtocolKind Protocol : W.Protocols) {
        Sim X;
        X.Kernel = KI;
        X.Protocol = Protocol;
        X.SeedIndex = S;
        if (K.RoundTrip) {
          // As --profile does: the sinks observe each median's first seed.
          Observability *Obs = W.Observed && S == 0 ? &Bundle : nullptr;
          double Dt = T.time(std::string("core.simulate.") +
                                 protocolId(Protocol),
                             T.newSim(), [&] {
                               X.Result = simulateOne(K.Graph, W, Protocol,
                                                      seedOf(Seed, S), Obs);
                             });
          X.Ran = true;
          P.SimulateS += Dt;
          P.SimulateByProtocol[Protocol] += Dt;
          P.Accesses += X.Result.Coherence.accesses();
          if (Obs) {
            X.SinkOk = Log.error().empty();
            removeFile(Log.lastPath());
          }
        }
        P.Sims.push_back(std::move(X));
      }
    }
  }
}

/// The pass's machine-readable report: host tag plus every simulation's
/// counters, built with JsonWriter and written to the work directory.
void emitReport(const Workload &W, std::uint64_t Seed, const HostTag &Host,
                const Pass &P, const fs::path &Path) {
  JsonWriter J;
  J.beginObject()
      .member("schema", "simbench-report-v1")
      .member("workload", W.Name)
      .member("seed", Seed)
      .key("host");
  Host.write(J);
  J.key("runs").beginArray();
  for (const Sim &X : P.Sims) {
    if (!X.Ran)
      continue;
    J.beginObject()
        .member("kernel", P.Kernels[X.Kernel].Name)
        .member("protocol", protocolId(X.Protocol))
        .member("seed", seedOf(Seed, X.SeedIndex));
    forEachCounter(X.Result, [&J](const char *Name, std::uint64_t Value) {
      J.member(Name, Value);
    });
    J.endObject();
  }
  J.endArray().endObject();
  std::ofstream Out(Path, std::ios::binary);
  Out << J.str() << '\n';
}

/// Mean over kernels of MESI's median-of-seeds makespan over WARDen's.
double speedupMean(const Pass &P) {
  std::map<std::pair<std::size_t, ProtocolKind>, std::vector<Cycles>> Spans;
  for (const Sim &X : P.Sims)
    if (X.Ran)
      Spans[{X.Kernel, X.Protocol}].push_back(X.Result.Makespan);
  auto MedianSpan = [&Spans](std::size_t K, ProtocolKind Kind) -> Cycles {
    auto It = Spans.find({K, Kind});
    if (It == Spans.end())
      return 0;
    std::vector<Cycles> V = It->second;
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  double Sum = 0.0;
  unsigned Count = 0;
  for (std::size_t K = 0; K < P.Kernels.size(); ++K) {
    Cycles Mesi = MedianSpan(K, ProtocolKind::Mesi);
    Cycles Warden = MedianSpan(K, ProtocolKind::Warden);
    if (Mesi == 0 || Warden == 0)
      continue;
    Sum += static_cast<double>(Mesi) / static_cast<double>(Warden);
    ++Count;
  }
  return Count ? Sum / Count : 0.0;
}

Pass runPass(const Workload &W, double Scale, std::uint64_t Seed, Tracer &T,
             const fs::path &Work, const HostTag &Host) {
  Pass P;
  P.Traced = T.Enabled;
  T.time("pass", Tracer::None, [&] {
    recordKernels(Scale, T, Work, P);
    simulateKernels(W, Seed, T, Work, P);
    P.EmitS = T.time("report.emit", Tracer::None, [&] {
      emitReport(W, Seed, Host, P,
                 Work / ("report." + std::string(W.Name) + ".json"));
    });
  });
  P.SpeedupMean = speedupMean(P);
  return P;
}

/// Counts the pass's failed simulations: kernel not verified, trace not
/// round-tripped exactly, event log not written, or a digest that differs
/// from \p Reference. Keys missing from \p Reference are failures unless
/// \p Fill, which records them instead.
std::uint64_t countFailures(const Pass &P, DigestSet &Reference, bool Fill,
                            std::vector<std::string> &Messages) {
  std::uint64_t Failed = 0;
  for (const Sim &X : P.Sims) {
    const Kernel &K = P.Kernels[X.Kernel];
    std::string Key = K.Name + "/" + protocolId(X.Protocol) + "/" +
                      std::to_string(X.SeedIndex);
    std::string Why;
    if (!K.Verified) {
      Why = "PBBS output not verified";
    } else if (!K.RoundTrip || !X.Ran) {
      Why = "trace round trip not exact";
    } else if (!X.SinkOk) {
      Why = "event log failed";
    } else {
      std::uint64_t Digest = digestOf(X.Result);
      auto It = Reference.find(Key);
      if (It == Reference.end()) {
        if (Fill)
          Reference[Key] = Digest;
        else
          Why = "no committed digest";
      } else if (It->second != Digest) {
        Why = "simulated statistics differ from the reference digest";
      }
    }
    if (!Why.empty()) {
      ++Failed;
      if (Messages.size() < 20)
        Messages.push_back(Key + ": " + Why);
    }
  }
  return Failed;
}

//===----------------------------------------------------------------------===//
// Isolation replays and layer extras (traced run only)
//===----------------------------------------------------------------------===//

/// Visits the strands of \p G in serial depth-first order, placing them the
/// way work stealing spreads a fork tree on an otherwise idle machine: child
/// I of a fork runs on (parent core + I) mod \p Cores and a join
/// continuation on the core of its last finishing child. Visit(Strand, Core,
/// Acquires) is told whether the strand starts by consuming another core's
/// data (a stolen child or a join continuation), where the replayer would
/// call syncAcquire.
template <typename FnT>
void walkStrands(const TaskGraph &G, unsigned Cores, FnT Visit) {
  std::vector<std::uint32_t> Pending(G.size());
  for (StrandId Id = 0; Id < G.size(); ++Id)
    Pending[Id] = G.strand(Id).PendingJoin;
  struct Item {
    StrandId Id;
    CoreId Core;
    bool Acquires;
  };
  std::vector<Item> Stack = {{G.root(), 0, false}};
  while (!Stack.empty()) {
    Item It = Stack.back();
    Stack.pop_back();
    Visit(It.Id, It.Core, It.Acquires);
    const Strand &S = G.strand(It.Id);
    if (S.isForkPoint()) {
      for (std::size_t I = S.Children.size(); I-- > 0;)
        Stack.push_back({S.Children[I],
                         static_cast<CoreId>((It.Core + I) % Cores), I != 0});
    } else if (S.JoinTarget != InvalidStrand && Pending[S.JoinTarget] > 0 &&
               --Pending[S.JoinTarget] == 0) {
      Stack.push_back({S.JoinTarget, It.Core, true});
    }
  }
}

std::uint64_t footprintOf(const TaskGraph &G) {
  std::uint64_t Bytes = 0;
  for (const auto &[Start, EndSite] : G.memoryMap().spans())
    Bytes += EndSite.first - Start;
  return Bytes;
}

bool isAccess(TraceOp Op) {
  return Op == TraceOp::Load || Op == TraceOp::Store || Op == TraceOp::Rmw;
}

struct Layers {
  double SchedReplayS = 0;
  std::uint64_t SchedEvents = 0;
  double CohStreamS = 0, CohSyncS = 0;
  std::uint64_t CohAccesses = 0, CohBlocks = 0, CohHits = 0, CohInvDown = 0;
  double MemS = 0;
  std::uint64_t MemLookups = 0, MemHits = 0;
  double ObsDetachedS = 0, ObsProfilerS = 0, ObsCpiS = 0, ObsEvlogS = 0;
  std::uint64_t EvlogBytes = 0;
  double PoolSerialS = 0, PoolS = 0;
};

/// The scheduler over a near-null controller: each kernel's graph with
/// every access and region instruction replaced by an L1-hit's worth of
/// work, so the replay loop, deques and steals run while the controller
/// sees only deque-line traffic and sync hooks. Same kernel x seed x
/// protocol batch as a pass.
void isolateScheduler(const Workload &W, const std::vector<Kernel> &Kernels,
                      std::uint64_t Seed, Tracer &T, Layers &L) {
  for (const Kernel &K : Kernels) {
    TaskGraph Bare = K.Graph;
    for (StrandId Id = 0; Id < Bare.size(); ++Id)
      for (TraceEvent &E : Bare.strand(Id).Events)
        if (E.Op != TraceOp::Work)
          E = TraceEvent::work(W.Machine.L1Latency);
    for (unsigned S = 0; S < SeedsPerKernel; ++S)
      for (ProtocolKind Protocol : W.Protocols) {
        MachineConfig Config = W.Machine;
        Config.Protocol = Protocol;
        L.SchedReplayS += T.time("sched.replay", T.newSim(), [&] {
          CoherenceController Controller(Config);
          Replayer Replay(Bare, Controller, seedOf(Seed, S));
          Replay.run();
        });
        L.SchedEvents += Bare.totalEvents();
      }
  }
}

/// The controller over the recorded access stream, with no scheduler:
/// accesses, region instructions and strand-boundary sync hooks, fed in
/// walkStrands() order into a fresh controller per kernel x seed x protocol
/// (the stream does not depend on the seed; the repeats keep the batch
/// shape of simulate_s).
void isolateCoherence(const Workload &W, const std::vector<Kernel> &Kernels,
                      Tracer &T, Layers &L) {
  for (const Kernel &K : Kernels) {
    std::uint64_t Footprint = footprintOf(K.Graph);
    for (unsigned S = 0; S < SeedsPerKernel; ++S)
      for (ProtocolKind Protocol : W.Protocols) {
        MachineConfig Config = W.Machine;
        Config.Protocol = Protocol;
        CoherenceController Controller(Config);
        Controller.reserveFootprint(Footprint);
        double SyncS = 0;
        auto TimedSync = [&SyncS](auto &&Hook) {
          Clock::time_point Start = Clock::now();
          Hook();
          SyncS += since(Start);
        };
        L.CohStreamS += T.time("coherence.stream", T.newSim(), [&] {
          walkStrands(
              K.Graph, Config.totalCores(),
              [&](StrandId Id, CoreId Core, bool Acquires) {
                if (Acquires)
                  TimedSync([&] { Controller.syncAcquire(Core); });
                for (const TraceEvent &E : K.Graph.strand(Id).Events) {
                  switch (E.Op) {
                  case TraceOp::Work:
                    break;
                  case TraceOp::Load:
                    Controller.access(Core, E.Address, E.Size,
                                      AccessType::Load);
                    break;
                  case TraceOp::Store:
                    Controller.access(Core, E.Address, E.Size,
                                      AccessType::Store);
                    break;
                  case TraceOp::Rmw:
                    Controller.access(Core, E.Address, E.Size,
                                      AccessType::Rmw);
                    break;
                  case TraceOp::MarkRegion:
                    Controller.addRegion(E.Region, E.Address, E.Extra);
                    break;
                  case TraceOp::UnmarkRegion:
                    Controller.removeRegion(E.Region, Core);
                    break;
                  }
                }
                TimedSync([&] { Controller.syncRelease(Core); });
              });
        });
        L.CohSyncS += SyncS;
        const CoherenceStats &Stats = Controller.stats();
        L.CohAccesses += Stats.accesses();
        L.CohBlocks += Stats.L1Accesses;
        L.CohHits += Stats.L1Hits + Stats.L2Hits;
        L.CohInvDown += Stats.invPlusDown();
      }
  }
}

/// Private L1 arrays over the recorded block stream: one L1-geometry
/// CacheArray per core, a lookup per block touched and an insert on miss.
void isolateMem(const Workload &W, const std::vector<Kernel> &Kernels,
                Tracer &T, Layers &L) {
  const MachineConfig &M = W.Machine;
  CacheGeometry L1(std::uint64_t(M.L1SizeKB) * 1024, M.L1Assoc, M.BlockSize);
  for (const Kernel &K : Kernels) {
    std::vector<std::pair<CoreId, Addr>> Blocks;
    walkStrands(K.Graph, M.totalCores(), [&](StrandId Id, CoreId Core, bool) {
      for (const TraceEvent &E : K.Graph.strand(Id).Events)
        if (isAccess(E.Op))
          for (Addr B = L1.blockAddr(E.Address); B < E.Address + E.Size;
               B += M.BlockSize)
            Blocks.push_back({Core, B});
    });
    std::vector<CacheArray> Arrays;
    for (unsigned C = 0; C < M.totalCores(); ++C)
      Arrays.emplace_back(L1, M.Replacement);
    std::uint64_t Hits = 0;
    L.MemS += T.time("mem.lookup", Tracer::None, [&] {
      for (const auto &[Core, Block] : Blocks) {
        if (Arrays[Core].lookup(Block))
          ++Hits;
        else
          Arrays[Core].insert(Block, LineState::Exclusive);
      }
    });
    L.MemLookups += Blocks.size();
    L.MemHits += Hits;
  }
}

/// Each sink attached alone to the first seed of every kernel x protocol,
/// against the same simulations detached.
void measureSinks(const Workload &W, const std::vector<Kernel> &Kernels,
                  std::uint64_t Seed, Tracer &T, const fs::path &Work,
                  Layers &L) {
  for (const Kernel &K : Kernels)
    for (ProtocolKind Protocol : W.Protocols) {
      auto Run = [&](const char *Name, Observability *Obs) {
        return T.time(Name, T.newSim(), [&] {
          simulateOne(K.Graph, W, Protocol, Seed, Obs);
        });
      };
      L.ObsDetachedS += Run("obs.detached", nullptr);
      SharingProfiler Profiler;
      Observability WithProfiler;
      WithProfiler.Profiler = &Profiler;
      L.ObsProfilerS += Run("obs.profiler", &WithProfiler);
      CpiStack Cpi;
      Observability WithCpi;
      WithCpi.Cpi = &Cpi;
      L.ObsCpiS += Run("obs.cpi", &WithCpi);
      EventLog Log;
      Log.configure((Work / ("obs." + K.Name)).string());
      Observability WithLog;
      WithLog.Log = &Log;
      L.ObsEvlogS += Run("obs.evlog", &WithLog);
      L.EvlogBytes += fileBytes(Log.lastPath());
      removeFile(Log.lastPath());
    }
}

/// The detached batch run serially and then fanned out over a JobPool of
/// \p Threads executors. Pooled results must equal the serial ones;
/// mismatches are returned as failures.
std::uint64_t measurePool(const Workload &W, const std::vector<Kernel> &Kernels,
                          std::uint64_t Seed, unsigned Threads, Tracer &T,
                          Layers &L, std::vector<std::string> &Messages) {
  struct Job {
    std::size_t Kernel;
    ProtocolKind Protocol;
    unsigned SeedIndex;
  };
  std::vector<Job> Jobs;
  for (std::size_t K = 0; K < Kernels.size(); ++K)
    for (unsigned S = 0; S < SeedsPerKernel; ++S)
      for (ProtocolKind Protocol : W.Protocols)
        Jobs.push_back({K, Protocol, S});
  auto RunJob = [&](const Job &J) {
    return digestOf(simulateOne(Kernels[J.Kernel].Graph, W, J.Protocol,
                                seedOf(Seed, J.SeedIndex), nullptr));
  };
  std::vector<std::uint64_t> Serial(Jobs.size()), Pooled(Jobs.size());
  L.PoolSerialS = T.time("support.serial", Tracer::None, [&] {
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      Serial[I] = RunJob(Jobs[I]);
  });
  JobPool Pool(Threads);
  L.PoolS = T.time("support.jobpool", Tracer::None, [&] {
    Pool.parallelFor(Jobs.size(),
                     [&](std::size_t I) { Pooled[I] = RunJob(Jobs[I]); });
  });
  std::uint64_t Failed = 0;
  for (std::size_t I = 0; I < Jobs.size(); ++I)
    if (Serial[I] != Pooled[I]) {
      ++Failed;
      if (Messages.size() < 20)
        Messages.push_back(Kernels[Jobs[I].Kernel].Name + "/" +
                           protocolId(Jobs[I].Protocol) +
                           ": pooled run differs from serial");
    }
  return Failed;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  std::uint64_t Seed = PinnedSeed;
  double Seconds = 10.0;
  bool Trace = false;
  double Scale = 0.0; ///< 0 = the workload's own scale.
  std::string Digests = "simbench/digests.json";
  std::string WorkDir = ".bench_build/simbench-work";
  bool WriteDigests = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--write-digests") {
      O.WriteDigests = true;
      continue;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "simbench: %s needs a value\n", Arg.c_str());
      return false;
    }
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1") {
        std::fprintf(stderr, "simbench: --trace takes 0 or 1\n");
        return false;
      }
      O.Trace = Value == "1";
    } else if (Arg == "--scale") {
      O.Scale = std::strtod(Value.c_str(), &End);
    } else if (Arg == "--digests") {
      O.Digests = Value;
    } else if (Arg == "--work") {
      O.WorkDir = Value;
    } else {
      std::fprintf(stderr, "simbench: unknown argument %s\n", Arg.c_str());
      return false;
    }
    if (End && (*End != '\0' || Value.empty())) {
      std::fprintf(stderr, "simbench: bad number for %s: %s\n", Arg.c_str(),
                   Value.c_str());
      return false;
    }
  }
  if (O.Workload.empty() || O.Seconds < 0 || O.Scale < 0) {
    std::fprintf(stderr,
                 "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--digests FILE] [--work DIR] "
                 "[--write-digests]\n");
    return false;
  }
  return true;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Median of Fn over the passes; with \p Only set, over the passes whose
/// Traced flag equals it.
template <typename FnT>
double medianOver(const std::vector<Pass> &Passes, FnT Fn,
                  std::optional<bool> Only = std::nullopt) {
  std::vector<double> Values;
  for (const Pass &P : Passes)
    if (!Only || P.Traced == *Only)
      Values.push_back(Fn(P));
  return median(Values);
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<Metric> endToEndMetrics(const std::vector<Pass> &Passes) {
  return {
      {"sim_accesses_per_s", medianOver(Passes, [](const Pass &P) {
         return ratio(static_cast<double>(P.Accesses), P.SimulateS);
       }),
       "acc/s"},
      {"simulate_s", medianOver(Passes, [](const Pass &P) {
         return P.SimulateS;
       }),
       "s"},
      {"setup_s", medianOver(Passes, [](const Pass &P) { return P.setupS(); }),
       "s"},
      {"wall_s", medianOver(Passes, [](const Pass &P) { return P.wallS(); }),
       "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"warden_speedup_mean", medianOver(Passes, [](const Pass &P) {
         return P.SpeedupMean;
       }),
       "x"},
  };
}

std::vector<Metric> perLayerMetrics(const std::vector<Pass> &Passes,
                                    const Layers &L) {
  auto Med = [&Passes](auto Fn) { return medianOver(Passes, Fn, true); };
  const Pass &Last = Passes.back();

  std::uint64_t Steals = 0, FailedSteals = 0, Probes = 0;
  for (const Sim &X : Last.Sims) {
    Steals += X.Result.Sched.Steals;
    FailedSteals += X.Result.Sched.FailedSteals;
    Probes += X.Result.Sched.StealProbes;
  }
  double UntracedSimS = medianOver(
      Passes, [](const Pass &P) { return P.SimulateS; }, false);
  double TracedSimS = Med([](const Pass &P) { return P.SimulateS; });

  std::vector<Metric> M = {
      {"pbbs.record_s", Med([](const Pass &P) { return P.RecordS; }), "s"},
      {"pbbs.events_per_s", Med([](const Pass &P) {
         return ratio(static_cast<double>(P.RecordedEvents), P.RecordS);
       }),
       "events/s"},
      {"trace.write_s", Med([](const Pass &P) { return P.WriteS; }), "s"},
      {"trace.read_s", Med([](const Pass &P) { return P.ReadS; }), "s"},
      {"trace.bytes", static_cast<double>(Last.TraceBytes), "bytes"},
  };
  for (ProtocolKind Kind : allProtocolKinds())
    M.push_back({std::string("core.simulate_s.") + protocolId(Kind),
                 Med([Kind](const Pass &P) {
                   auto It = P.SimulateByProtocol.find(Kind);
                   return It == P.SimulateByProtocol.end() ? 0.0 : It->second;
                 }),
                 "s"});
  std::vector<Metric> Rest = {
      {"sched.replay_s", L.SchedReplayS, "s"},
      {"sched.events_per_s",
       ratio(static_cast<double>(L.SchedEvents), L.SchedReplayS), "events/s"},
      {"sched.steals", static_cast<double>(Steals), "count"},
      {"sched.failed_steals", static_cast<double>(FailedSteals), "count"},
      {"sched.steal_probes", static_cast<double>(Probes), "count"},
      {"sched.steal_success_frac",
       ratio(static_cast<double>(Steals),
             static_cast<double>(Steals + FailedSteals)),
       "fraction"},
      {"coherence.stream_s", L.CohStreamS, "s"},
      {"coherence.ns_per_access",
       1e9 * ratio(L.CohStreamS, static_cast<double>(L.CohAccesses)), "ns"},
      {"coherence.hit_frac",
       ratio(static_cast<double>(L.CohHits), static_cast<double>(L.CohBlocks)),
       "fraction"},
      {"coherence.misses", static_cast<double>(L.CohBlocks - L.CohHits),
       "count"},
      {"coherence.inv_down", static_cast<double>(L.CohInvDown), "count"},
      {"coherence.sync_s", L.CohSyncS, "s"},
      {"mem.ns_per_lookup",
       1e9 * ratio(L.MemS, static_cast<double>(L.MemLookups)), "ns"},
      {"mem.hit_frac",
       ratio(static_cast<double>(L.MemHits),
             static_cast<double>(L.MemLookups)),
       "fraction"},
      {"obs.profiler_overhead_x", ratio(L.ObsProfilerS, L.ObsDetachedS), "x"},
      {"obs.cpi_overhead_x", ratio(L.ObsCpiS, L.ObsDetachedS), "x"},
      {"obs.evlog_overhead_x", ratio(L.ObsEvlogS, L.ObsDetachedS), "x"},
      {"obs.evlog_bytes", static_cast<double>(L.EvlogBytes), "bytes"},
      {"report.emit_s", Med([](const Pass &P) { return P.EmitS; }), "s"},
      {"support.jobpool_speedup", ratio(L.PoolSerialS, L.PoolS), "x"},
      {"layers.unexplained_frac",
       UntracedSimS > 0.0
           ? 1.0 - (L.SchedReplayS + L.CohStreamS) / UntracedSimS
           : 0.0,
       "fraction"},
      {"trace_overhead_frac", ratio(TracedSimS, UntracedSimS) - 1.0,
       "fraction"},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

int run(const Options &Opt) {
  const Workload *W = nullptr;
  for (const Workload &Candidate : workloads())
    if (Opt.Workload == Candidate.Name)
      W = &Candidate;
  if (!W) {
    std::fprintf(stderr, "simbench: unknown workload '%s'; valid:",
                 Opt.Workload.c_str());
    for (const Workload &Candidate : workloads())
      std::fprintf(stderr, " %s", Candidate.Name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const double Scale = Opt.Scale > 0.0 ? Opt.Scale : W->Scale;
  const fs::path Work = Opt.WorkDir;
  fs::create_directories(Work);
  const HostTag Host;
  std::printf("# simbench workload=%s scale=%g seed=%" PRIu64
              " seconds=%g trace=%d machine=\"%s\"\n",
              W->Name, Scale, Opt.Seed, Opt.Seconds, Opt.Trace ? 1 : 0,
              W->Machine.describe().c_str());
  std::printf("# host: %s\n", Host.line().c_str());

  const std::string SetKey = digestSetKey(*W, Scale);
  std::map<std::string, DigestSet> Sets;
  std::string Error;
  if (!loadDigestFile(Opt.Digests, Sets, Error)) {
    std::fprintf(stderr, "simbench: %s\n", Error.c_str());
    return 1;
  }

  Tracer T;
  std::vector<std::string> Messages;
  std::uint64_t Attempted = 0, Failed = 0;

  // Warm-up: one untimed pass at the pinned seed, checked against the
  // committed digests (or, with --write-digests, defining them).
  {
    Pass Warm = runPass(*W, Scale, PinnedSeed, T, Work, Host);
    if (Opt.WriteDigests) {
      DigestSet Fresh;
      std::uint64_t Bad = countFailures(Warm, Fresh, true, Messages);
      for (const std::string &Message : Messages)
        std::fprintf(stderr, "simbench: %s\n", Message.c_str());
      if (Bad != 0)
        return 1;
      Sets[SetKey] = Fresh;
      if (!writeDigestFile(Opt.Digests, Sets)) {
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     Opt.Digests.c_str());
        return 1;
      }
      std::printf("# wrote %zu digests for %s to %s\n", Fresh.size(),
                  SetKey.c_str(), Opt.Digests.c_str());
      return 0;
    }
    DigestSet Expected = Sets[SetKey];
    Attempted += Warm.Sims.size();
    Failed += countFailures(Warm, Expected, false, Messages);
  }

  // Timed passes at the requested seed until the budget is spent; every
  // pass must reproduce the first one's simulated statistics exactly.
  std::vector<Pass> Passes;
  DigestSet TimedReference;
  const std::size_t MinPasses = Opt.Trace ? 4 : 3;
  Clock::time_point LoopStart = Clock::now();
  while (Passes.size() < MinPasses || since(LoopStart) < Opt.Seconds) {
    if (!Passes.empty()) {
      Passes.back().Kernels.clear(); // Keep one pass's graphs alive at once.
      Passes.back().Sims.clear();
    }
    T.Enabled = Opt.Trace && Passes.size() % 2 == 0;
    Pass P = runPass(*W, Scale, Opt.Seed, T, Work, Host);
    T.Enabled = false;
    Attempted += P.Sims.size();
    Failed += countFailures(P, TimedReference, Passes.empty(), Messages);
    Passes.push_back(std::move(P));
  }

  std::vector<Metric> Metrics;
  if (Opt.Trace) {
    Layers L;
    const std::vector<Kernel> &Kernels = Passes.back().Kernels;
    T.Enabled = true;
    isolateScheduler(*W, Kernels, Opt.Seed, T, L);
    isolateCoherence(*W, Kernels, T, L);
    isolateMem(*W, Kernels, T, L);
    measureSinks(*W, Kernels, Opt.Seed, T, Work, L);
    std::uint64_t PoolFailed = measurePool(
        *W, Kernels, Opt.Seed, std::min(Host.Nproc, 4u), T, L, Messages);
    T.Enabled = false;
    Attempted += Kernels.size() * SeedsPerKernel * W->Protocols.size();
    Failed += PoolFailed;
    Metrics = perLayerMetrics(Passes, L);
    fs::path SpanFile = Work / ("spans." + std::string(W->Name) + ".json");
    if (!T.write(SpanFile, Host))
      std::fprintf(stderr, "simbench: cannot write %s\n",
                   SpanFile.string().c_str());
    std::printf("# spans: %s\n", SpanFile.string().c_str());
    std::printf("# note: the sched, coherence and mem numbers come from "
                "isolation replays; they drop the scheduler's interleaving "
                "and are estimates, not a measured split of simulate_s.\n");
  } else {
    Metrics = endToEndMetrics(Passes);
    double Speedup = Metrics.back().Value;
    if (W->PaperSpeedup > 0.0)
      std::printf("# warden_speedup_mean %.4fx (simulated); the paper reports "
                  "%.2fx on this machine, error %+.1f%%\n",
                  Speedup, W->PaperSpeedup,
                  100.0 * (Speedup / W->PaperSpeedup - 1.0));
    else
      std::printf("# warden_speedup_mean %.4fx (simulated); no paper "
                  "reference for this machine: unvalidated\n",
                  Speedup);
  }

  for (const std::string &Message : Messages)
    std::fprintf(stderr, "simbench: FAILED %s\n", Message.c_str());
  std::printf("# passes=%zu (plus 1 untimed warm-up at seed %" PRIu64
              ") simulations=%" PRIu64 "\n",
              Passes.size(), PinnedSeed, Attempted);
  std::printf("# failed_frac = %.6g fraction\n",
              ratio(static_cast<double>(Failed),
                    static_cast<double>(Attempted)));
  for (const Metric &M : Metrics)
    std::printf("# %s = %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  JsonWriter J;
  J.beginObject()
      .member("correct", Failed == 0)
      .member("attempted", Attempted)
      .member("failed", Failed)
      .key("metrics")
      .beginObject();
  for (const Metric &M : Metrics)
    J.key(M.Name)
        .beginObject()
        .member("value", M.Value)
        .member("unit", M.Unit)
        .endObject();
  J.endObject().endObject();
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt))
    return 2;
  try {
    return run(Opt);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "simbench: %s\n", E.what());
    return 1;
  }
}
