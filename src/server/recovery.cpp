#include "server/recovery.h"

#include <algorithm>
#include <cstring>

namespace xplace::server {

namespace {

// checkpoint_io-style little-endian scalar/string codec over std::string.
template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
bool get(const std::string& buf, std::size_t* pos, T* out) {
  if (*pos + sizeof(T) > buf.size()) return false;
  std::memcpy(out, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void put_str(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

bool get_str(const std::string& buf, std::size_t* pos, std::string* out) {
  std::uint32_t len = 0;
  if (!get(buf, pos, &len)) return false;
  if (*pos + len > buf.size()) return false;
  out->assign(buf, *pos, len);
  *pos += len;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

std::string encode_submit(const JobSpec& spec, int attempt) {
  std::string out;
  put_str(out, spec.aux);
  put<std::int64_t>(out, static_cast<std::int64_t>(spec.demo_cells));
  put<std::uint64_t>(out, spec.demo_seed);
  put<std::int32_t>(out, spec.max_iters);
  put<std::int32_t>(out, spec.grid);
  put<std::int32_t>(out, spec.threads);
  put<std::uint8_t>(out, spec.full_flow ? 1 : 0);
  put<std::int32_t>(out, spec.priority);
  put<double>(out, spec.deadline_s);
  put_str(out, spec.label);
  put<std::int32_t>(out, attempt);
  // Design-store / sweep fields (appended). Startup compaction rewrites the
  // journal with the running binary's codec; a record from a binary with
  // another layout fails the decoder's exact-length check and is dropped
  // (drain before upgrading — DESIGN.md §13).
  put<std::uint64_t>(out, spec.design_hash);
  put<std::uint64_t>(out, spec.seed);
  put<double>(out, spec.target_density);
  put<double>(out, spec.lambda_init);
  put<std::uint8_t>(out, spec.dedup ? 1 : 0);
  // Perturbed-restart fields (appended, same compaction argument).
  put<double>(out, spec.init_noise_scale);
  put<double>(out, spec.gamma_scale);
  put<double>(out, spec.lambda_scale);
  return out;
}

bool decode_submit(const std::string& payload, JobSpec* spec, int* attempt) {
  std::size_t pos = 0;
  std::int64_t cells = 0;
  std::uint8_t full = 0;
  std::int32_t max_iters = 0, grid = 0, threads = 0, prio = 0, att = 0;
  if (!get_str(payload, &pos, &spec->aux)) return false;
  if (!get(payload, &pos, &cells)) return false;
  if (!get(payload, &pos, &spec->demo_seed)) return false;
  if (!get(payload, &pos, &max_iters)) return false;
  if (!get(payload, &pos, &grid)) return false;
  if (!get(payload, &pos, &threads)) return false;
  if (!get(payload, &pos, &full)) return false;
  if (!get(payload, &pos, &prio)) return false;
  if (!get(payload, &pos, &spec->deadline_s)) return false;
  if (!get_str(payload, &pos, &spec->label)) return false;
  if (!get(payload, &pos, &att)) return false;
  std::uint8_t dedup = 0;
  if (!get(payload, &pos, &spec->design_hash)) return false;
  if (!get(payload, &pos, &spec->seed)) return false;
  if (!get(payload, &pos, &spec->target_density)) return false;
  if (!get(payload, &pos, &spec->lambda_init)) return false;
  if (!get(payload, &pos, &dedup)) return false;
  if (!get(payload, &pos, &spec->init_noise_scale)) return false;
  if (!get(payload, &pos, &spec->gamma_scale)) return false;
  if (!get(payload, &pos, &spec->lambda_scale)) return false;
  if (pos != payload.size()) return false;
  spec->dedup = dedup != 0;
  spec->demo_cells = static_cast<long>(cells);
  spec->max_iters = max_iters;
  spec->grid = grid;
  spec->threads = threads;
  spec->full_flow = full != 0;
  spec->priority = prio;
  *attempt = att;
  return true;
}

std::string encode_finish(const FinishInfo& info) {
  std::string out;
  put<std::int32_t>(out, static_cast<std::int32_t>(info.state));
  put<std::int32_t>(out, static_cast<std::int32_t>(info.stop_reason));
  put<double>(out, info.hpwl);
  put<double>(out, info.overflow);
  put<std::int32_t>(out, info.iterations);
  put<double>(out, info.gp_seconds);
  put<double>(out, info.dp_hpwl);
  put<std::uint8_t>(out, info.legalized ? 1 : 0);
  put_str(out, info.error);
  return out;
}

bool decode_finish(const std::string& payload, FinishInfo* info) {
  std::size_t pos = 0;
  std::int32_t state = 0, reason = 0, iters = 0;
  std::uint8_t legal = 0;
  if (!get(payload, &pos, &state)) return false;
  if (!get(payload, &pos, &reason)) return false;
  if (!get(payload, &pos, &info->hpwl)) return false;
  if (!get(payload, &pos, &info->overflow)) return false;
  if (!get(payload, &pos, &iters)) return false;
  if (!get(payload, &pos, &info->gp_seconds)) return false;
  if (!get(payload, &pos, &info->dp_hpwl)) return false;
  if (!get(payload, &pos, &legal)) return false;
  if (!get_str(payload, &pos, &info->error)) return false;
  if (pos != payload.size()) return false;
  info->state = static_cast<JobState>(state);
  info->stop_reason = static_cast<core::StopReason>(reason);
  info->iterations = iters;
  info->legalized = legal != 0;
  return true;
}

std::string encode_checkpoint(int next_iter, const std::string& path) {
  std::string out;
  put<std::int32_t>(out, next_iter);
  put_str(out, path);
  return out;
}

bool decode_checkpoint(const std::string& payload, int* next_iter,
                       std::string* path) {
  std::size_t pos = 0;
  std::int32_t iter = 0;
  if (!get(payload, &pos, &iter)) return false;
  if (!get_str(payload, &pos, path)) return false;
  if (pos != payload.size()) return false;
  *next_iter = iter;
  return true;
}

std::string encode_retry(const RetryInfo& info) {
  std::string out;
  put<std::int32_t>(out, info.attempt);
  put<double>(out, info.backoff_s);
  put_str(out, info.reason);
  return out;
}

bool decode_retry(const std::string& payload, RetryInfo* info) {
  std::size_t pos = 0;
  std::int32_t att = 0;
  if (!get(payload, &pos, &att)) return false;
  if (!get(payload, &pos, &info->backoff_s)) return false;
  if (!get_str(payload, &pos, &info->reason)) return false;
  if (pos != payload.size()) return false;
  info->attempt = att;
  return true;
}

std::string encode_design_ref(const DesignRefInfo& info) {
  std::string out;
  put<std::uint8_t>(out, info.demo ? 1 : 0);
  put_str(out, info.aux);
  put<std::uint64_t>(out, info.cells);
  put<std::uint64_t>(out, info.seed);
  return out;
}

bool decode_design_ref(const std::string& payload, DesignRefInfo* info) {
  std::size_t pos = 0;
  std::uint8_t demo = 0;
  if (!get(payload, &pos, &demo)) return false;
  if (!get_str(payload, &pos, &info->aux)) return false;
  if (!get(payload, &pos, &info->cells)) return false;
  if (!get(payload, &pos, &info->seed)) return false;
  if (pos != payload.size()) return false;
  info->demo = demo != 0;
  return true;
}

std::string encode_group(const GroupInfo& info) {
  std::string out;
  put<std::uint64_t>(out, info.design_hash);
  put_str(out, info.label);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(info.members.size()));
  for (const GroupMember& m : info.members) {
    put<std::uint64_t>(out, m.id);
    put<std::uint8_t>(out, m.deduped ? 1 : 0);
  }
  put<std::uint8_t>(out, info.raced ? 1 : 0);
  if (info.raced) {
    put<std::uint64_t>(out, info.base_seed);
    put<double>(out, info.deadline_s);
    put<std::int32_t>(out, info.policy.min_iter);
    put<double>(out, info.policy.hpwl_margin);
    put<double>(out, info.policy.overflow_slack);
    put<std::uint8_t>(out, info.policy.no_kill ? 1 : 0);
  }
  return out;
}

bool decode_group(const std::string& payload, GroupInfo* info) {
  std::size_t pos = 0;
  std::uint32_t count = 0;
  if (!get(payload, &pos, &info->design_hash)) return false;
  if (!get_str(payload, &pos, &info->label)) return false;
  if (!get(payload, &pos, &count)) return false;
  info->members.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::uint8_t dedup = 0;
    if (!get(payload, &pos, &id)) return false;
    if (!get(payload, &pos, &dedup)) return false;
    info->members.push_back({id, dedup != 0});
  }
  std::uint8_t raced = 0;
  if (!get(payload, &pos, &raced)) return false;
  info->raced = raced != 0;
  if (info->raced) {
    std::int32_t min_iter = 0;
    std::uint8_t no_kill = 0;
    if (!get(payload, &pos, &info->base_seed)) return false;
    if (!get(payload, &pos, &info->deadline_s)) return false;
    if (!get(payload, &pos, &min_iter)) return false;
    if (!get(payload, &pos, &info->policy.hpwl_margin)) return false;
    if (!get(payload, &pos, &info->policy.overflow_slack)) return false;
    if (!get(payload, &pos, &no_kill)) return false;
    info->policy.min_iter = min_iter;
    info->policy.no_kill = no_kill != 0;
  }
  return pos == payload.size();
}

// ---------------------------------------------------------------------------
// Recovery planning
// ---------------------------------------------------------------------------

RecoveryPlan build_recovery_plan(const io::JournalReplay& replay) {
  RecoveryPlan plan;
  plan.torn_tail = replay.torn_tail;
  plan.corrupt = replay.corrupt;
  plan.records = replay.records.size();

  const auto find = [&plan](std::uint64_t id) -> RecoveredJob* {
    for (RecoveredJob& j : plan.jobs) {
      if (j.id == id) return &j;
    }
    return nullptr;
  };

  for (const io::JournalRecord& rec : replay.records) {
    const auto type = static_cast<JournalEvent>(rec.type);
    // Only job-lifecycle records (kSubmit..kRetry) carry a job id; the rest
    // reuse the slot for other identities (design hash, group id) and must
    // not poison job-id allocation.
    if (type >= JournalEvent::kSubmit && type <= JournalEvent::kRetry) {
      plan.max_id = std::max(plan.max_id, rec.job_id);
    }
    switch (type) {
      case JournalEvent::kSubmit: {
        RecoveredJob job;
        job.id = rec.job_id;
        job.submit_time_s = rec.time_s;
        if (!decode_submit(rec.payload, &job.spec, &job.attempt)) break;
        if (RecoveredJob* existing = find(rec.job_id)) {
          *existing = std::move(job);  // duplicate id: newest submit wins
        } else {
          plan.jobs.push_back(std::move(job));
        }
        break;
      }
      case JournalEvent::kStart:
        if (RecoveredJob* job = find(rec.job_id)) job->was_running = true;
        break;
      case JournalEvent::kCheckpoint:
        if (RecoveredJob* job = find(rec.job_id)) {
          decode_checkpoint(rec.payload, &job->checkpoint_iter,
                            &job->checkpoint_path);
        }
        break;
      case JournalEvent::kFinish:
        if (RecoveredJob* job = find(rec.job_id)) {
          if (decode_finish(rec.payload, &job->finish)) {
            job->terminal = true;
            job->was_running = false;
          }
        }
        break;
      case JournalEvent::kCancel:
        if (RecoveredJob* job = find(rec.job_id)) {
          job->cancel_requested = true;
          job->finish.error = rec.payload;
        }
        break;
      case JournalEvent::kRetry:
        if (RecoveredJob* job = find(rec.job_id)) {
          RetryInfo info;
          if (!decode_retry(rec.payload, &info)) break;
          JobAttempt att;
          att.number = info.attempt - 1;
          att.outcome = info.reason;
          att.backoff_s = info.backoff_s;
          job->attempts.push_back(std::move(att));
          job->attempt = info.attempt;
          job->was_running = false;
          job->terminal = false;
          // A retried attempt never resumes the diverged trajectory's spill.
          job->checkpoint_path.clear();
          job->checkpoint_iter = 0;
        }
        break;
      case JournalEvent::kCleanShutdown:
        break;  // positional: only meaningful as the final record
      case JournalEvent::kDesignRef: {
        DesignRefInfo info;
        if (!decode_design_ref(rec.payload, &info)) break;
        bool seen = false;
        for (const RecoveredDesign& d : plan.designs) {
          if (d.hash == rec.job_id) {
            seen = true;
            break;
          }
        }
        if (!seen) plan.designs.push_back(RecoveredDesign{rec.job_id, std::move(info)});
        break;
      }
      case JournalEvent::kGroup: {
        GroupInfo info;
        if (!decode_group(rec.payload, &info)) break;
        plan.max_group_id = std::max(plan.max_group_id, rec.job_id);
        bool seen = false;
        for (RecoveredGroup& g : plan.groups) {
          if (g.id == rec.job_id) {
            g.info = std::move(info);  // duplicate id: newest wins
            seen = true;
            break;
          }
        }
        if (!seen) {
          plan.groups.push_back(
              RecoveredGroup{rec.job_id, std::move(info), rec.time_s});
        }
        break;
      }
    }
  }
  plan.clean_shutdown =
      !replay.records.empty() &&
      static_cast<JournalEvent>(replay.records.back().type) ==
          JournalEvent::kCleanShutdown;
  return plan;
}

std::vector<io::JournalRecord> compaction_records(const RecoveryPlan& plan) {
  std::vector<io::JournalRecord> out;
  // Designs first: jobs and groups reference them by hash, and recovery
  // registers sources before it re-admits any work.
  for (const RecoveredDesign& d : plan.designs) {
    io::JournalRecord rec;
    rec.type = static_cast<std::uint32_t>(JournalEvent::kDesignRef);
    rec.job_id = d.hash;
    rec.payload = encode_design_ref(d.source);
    out.push_back(std::move(rec));
  }
  for (const RecoveredJob& job : plan.jobs) {
    io::JournalRecord submit;
    submit.type = static_cast<std::uint32_t>(JournalEvent::kSubmit);
    submit.job_id = job.id;
    submit.time_s = job.submit_time_s;
    submit.payload = encode_submit(job.spec, 0);
    out.push_back(std::move(submit));
    for (const JobAttempt& att : job.attempts) {
      io::JournalRecord retry;
      retry.type = static_cast<std::uint32_t>(JournalEvent::kRetry);
      retry.job_id = job.id;
      retry.time_s = job.submit_time_s;
      RetryInfo info;
      info.attempt = att.number + 1;
      info.backoff_s = att.backoff_s;
      info.reason = att.outcome;
      retry.payload = encode_retry(info);
      out.push_back(std::move(retry));
    }
    if (job.was_running) {
      // Re-emit the start so a crash right after compaction still folds this
      // job as interrupted-while-running (its checkpoint stays the resume
      // point instead of being discarded as a stale queued-job artifact).
      io::JournalRecord start;
      start.type = static_cast<std::uint32_t>(JournalEvent::kStart);
      start.job_id = job.id;
      start.time_s = job.submit_time_s;
      out.push_back(std::move(start));
    }
    if (!job.checkpoint_path.empty()) {
      io::JournalRecord ck;
      ck.type = static_cast<std::uint32_t>(JournalEvent::kCheckpoint);
      ck.job_id = job.id;
      ck.time_s = job.submit_time_s;
      ck.payload = encode_checkpoint(job.checkpoint_iter, job.checkpoint_path);
      out.push_back(std::move(ck));
    }
    if (job.terminal) {
      io::JournalRecord fin;
      fin.type = static_cast<std::uint32_t>(JournalEvent::kFinish);
      fin.job_id = job.id;
      fin.time_s = job.submit_time_s;
      fin.payload = encode_finish(job.finish);
      out.push_back(std::move(fin));
    } else if (job.cancel_requested) {
      io::JournalRecord cancel;
      cancel.type = static_cast<std::uint32_t>(JournalEvent::kCancel);
      cancel.job_id = job.id;
      cancel.time_s = job.submit_time_s;
      cancel.payload = job.finish.error;
      out.push_back(std::move(cancel));
    }
  }
  for (const RecoveredGroup& g : plan.groups) {
    io::JournalRecord rec;
    rec.type = static_cast<std::uint32_t>(JournalEvent::kGroup);
    rec.job_id = g.id;
    rec.time_s = g.submit_time_s;
    rec.payload = encode_group(g.info);
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace xplace::server
