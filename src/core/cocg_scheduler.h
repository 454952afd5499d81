// CocgScheduler — the paper's complete system (Fig. 3) as a pluggable
// platform::Scheduler.
//
//  * admission — Distributor (Algorithm 1) over per-GPU capacity views,
//    fed by the hosted sessions' monitors and the candidate's predictor.
//    Admission is incremental: candidate outlooks are memoized per game
//    until its model changes, and the per-view inputs are snapshotted
//    once per admission pass (docs/performance.md, "Incremental
//    admission");
//  * 5-second control loop — per-session OnlineMonitor updates (Fig. 8),
//    allocation = stage peak + redundancy (Eq. 1), Regulator stealing
//    loading time when a view is over the limit;
//  * replacing-model fallback — persistent prediction errors rotate the
//    game's model DTC → RF → GBDT (§IV-B2).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/distributor.h"
#include "core/offline.h"
#include "core/online_monitor.h"
#include "core/regulator.h"
#include "obs/obs.h"
#include "platform/scheduler.h"

namespace cocg::core {

struct CocgConfig {
  DistributorConfig distributor;
  RegulatorConfig regulator;
  MonitorConfig monitor;
  /// Consecutive prediction errors before the game's model is replaced.
  int replace_model_after = 5;
  /// Telemetry samples aggregated per detection (the paper's 5 s at 1 Hz).
  std::size_t detection_window = 5;
  std::uint64_t seed = 7;
};

class CocgScheduler final : public platform::Scheduler {
 public:
  /// `models`: one TrainedGame per game name (train_suite output).
  CocgScheduler(std::map<std::string, TrainedGame> models,
                CocgConfig cfg = {});

  std::string name() const override { return "CoCG"; }

  std::optional<platform::Placement> admit(
      platform::PlatformView& view, const platform::GameRequest& req) override;

  void control(platform::PlatformView& view) override;

  void on_session_start(platform::PlatformView& view, SessionId sid) override;
  void on_session_end(platform::PlatformView& view, SessionId sid) override;

  /// Introspection for tests/benches.
  const TrainedGame& model(const std::string& game) const;
  int model_replacements() const { return model_replacements_; }
  int total_callbacks() const;

 private:
  /// candidate_outlook() depends only on (game, player, script, horizon,
  /// model). The memo holds one game's outlooks keyed on (player, script)
  /// and is valid for one predictor generation; admit() drops a key when
  /// it accepts the request, so it holds only queued requests' keys.
  struct CandidateKeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::size_t>& k) const {
      return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ULL ^
                                        k.second);
    }
  };
  struct GameModel {
    TrainedGame tg;
    std::uint64_t memo_generation = 0;
    std::unordered_map<std::pair<std::uint64_t, std::size_t>,
                       CandidateOutlook, CandidateKeyHash>
        candidates;
  };

  /// One admissible GPU view as admit() sees it: the view's capacity and
  /// the outlooks of the sessions it hosts.
  struct ViewSnapshot {
    ServerId server;
    int gpu = 0;
    ResourceVector capacity;
    std::vector<SessionOutlook> hosted;
  };

  struct SessionState {
    std::unique_ptr<OnlineMonitor> monitor;
    std::string game;
    std::uint64_t player_id = 0;
    std::size_t script_idx = 0;
    /// Telemetry samples ever recorded (trimmed ones included) that the
    /// monitor has already aggregated.
    std::uint64_t samples_consumed = 0;
    DurationMs stolen_ms = 0;
    bool held = false;
    int outcomes_reported = 0;  ///< hits+misses already fed to the predictor
  };

  /// Capacity of one GPU view with the CPU/RAM pools reduced by sessions
  /// pinned to the server's other GPUs.
  ResourceVector view_capacity(const platform::PlatformView& view,
                               ServerId server, int gpu) const;
  SessionOutlook outlook_for(const SessionState& st, TimeMs now) const;
  /// Memoized; the reference stays valid until the entry is dropped (the
  /// request is accepted or the game's model changes).
  const CandidateOutlook& candidate_outlook(GameModel& gm,
                                            std::uint64_t player_id,
                                            std::size_t script_idx);
  /// Rebuild views_ unless it already reflects (view.now(), version_).
  void refresh_views(const platform::PlatformView& view);
  void update_monitor(platform::PlatformView& view, SessionId sid,
                      SessionState& st, bool view_saturated);

  std::map<std::string, GameModel> models_;
  CocgConfig cfg_;
  Distributor distributor_;
  Regulator regulator_;
  std::map<SessionId, SessionState> state_;
  Rng rng_;
  int model_replacements_ = 0;

  // Per-pass view snapshot. version_ is bumped by everything that can
  // change a view's admissibility, capacity or hosted outlooks between two
  // admissions at the same instant: control() and the session hooks.
  std::uint64_t version_ = 1;
  std::uint64_t views_version_ = 0;
  TimeMs views_now_ = 0;
  std::vector<ViewSnapshot> views_;

  // Decision-level observability (the per-view verdicts live in the
  // Distributor; these count whole admit() calls).
  obs::Counter obs_accepted_;
  obs::Counter obs_rejected_;
  obs::Counter obs_holds_;
  obs::Counter obs_replacements_;
  // Stage-profiler scopes for the three decision stages of the pipeline:
  // predictor (candidate outlook + monitor collect/judge/predict),
  // distributor (Algorithm 1 view scan), regulator (loading-steal pass).
  obs::StageTimer prof_predictor_;
  obs::StageTimer prof_distributor_;
  obs::StageTimer prof_regulator_;
};

}  // namespace cocg::core
