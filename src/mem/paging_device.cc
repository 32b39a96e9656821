#include "src/mem/paging_device.h"

#include <algorithm>

#include "src/base/log.h"

namespace multics {

PagingDevice::PagingDevice(std::string name, uint32_t capacity_pages, Cycles read_latency,
                           Cycles write_latency, Machine* machine)
    : name_(std::move(name)),
      capacity_(capacity_pages),
      read_latency_(read_latency),
      write_latency_(write_latency),
      machine_(machine) {
  free_list_.reserve(capacity_pages);
  // Allocate low addresses first (pop from the back).
  for (uint32_t i = 0; i < capacity_pages; ++i) {
    free_list_.push_back(capacity_pages - 1 - i);
  }
}

Result<DevAddr> PagingDevice::Allocate() {
  if (free_list_.empty()) {
    return Status::kResourceExhausted;
  }
  DevAddr addr = free_list_.back();
  free_list_.pop_back();
  if (addr >= slots_.size()) {
    slots_.resize(addr + 1);
  }
  slots_[addr].allocated = true;
  return addr;
}

Status PagingDevice::Free(DevAddr addr) {
  if (addr >= capacity_) {
    return Status::kInvalidArgument;
  }
  if (addr >= slots_.size() || !slots_[addr].allocated) {
    return Status::kFailedPrecondition;
  }
  slots_[addr] = Slot{};
  free_list_.push_back(addr);
  return Status::kOk;
}

Status PagingDevice::TakeBack(DevAddr addr, PageBlock* block) {
  if (addr >= slots_.size() || !slots_[addr].lent) {
    return Status::kFailedPrecondition;
  }
  StoreBlock(addr, std::move(*block));
  return Status::kOk;
}

Status PagingDevice::ReadBlock(DevAddr addr, ReadMode mode, PageBlock* out) {
  if (mode == ReadMode::kLend && (addr >= slots_.size() || !slots_[addr].allocated)) {
    return Status::kFailedPrecondition;  // Only an allocated slot can lend.
  }
  if (addr >= slots_.size()) {
    *out = nullptr;  // Never written: a page of zeros.
    return Status::kOk;
  }
  Slot& slot = slots_[addr];
  if (slot.lent) {
    return Status::kFailedPrecondition;  // Its block is in a core frame.
  }
  if (mode == ReadMode::kCopy) {
    *out = CopyPageBlock(slot.block.get());
  } else {
    slot.lent = mode == ReadMode::kLend;
    *out = std::move(slot.block);
  }
  return Status::kOk;
}

void PagingDevice::StoreBlock(DevAddr addr, PageBlock block) {
  if (addr >= slots_.size()) {
    slots_.resize(addr + 1);
  }
  slots_[addr].block = std::move(block);
  slots_[addr].lent = false;
}

Cycles PagingDevice::ScheduleTransfer(Cycles latency, Cycles* channel_busy_until) {
  const Cycles start = std::max(machine_->clock().now(), *channel_busy_until);
  const Cycles done = start + machine_->costs().io_start_overhead + latency;
  *channel_busy_until = done;
  return done;
}

Status PagingDevice::ConsultTransfer(InjectSite site, DevAddr addr) {
  if (machine_->injector() == nullptr) {
    return Status::kOk;
  }
  InjectionDecision d = machine_->ConsultInjector(site, name_.c_str(), addr);
  if (d.IsFault()) {
    ++injected_faults_;
    return d.fault;
  }
  return Status::kOk;
}

Cycles PagingDevice::BackoffFor(int attempt) const {
  // Geometric backoff keyed off the channel-start overhead: cheap relative
  // to a transfer, but visible in the "fault_recovery" charge category.
  return machine_->costs().io_start_overhead << attempt;
}

Status PagingDevice::ReadSync(DevAddr addr, ReadMode mode, PageBlock* out) {
  if (addr >= capacity_) {
    return Status::kInvalidArgument;
  }
  for (int attempt = 1;; ++attempt) {
    ++reads_;
    machine_->SyncTransfer(machine_->costs().io_start_overhead + read_latency_,
                           &read_busy_until_);
    machine_->charges_mutable().Increment("page_io", read_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceRead, addr);
    if (fault == Status::kOk) {
      return ReadBlock(addr, mode, out);
    }
    if (attempt >= kMaxTransferAttempts) {
      ++failed_transfers_;
      return fault;
    }
    ++retries_;
    machine_->Charge(BackoffFor(attempt), "fault_recovery");
  }
}

Status PagingDevice::WriteSync(DevAddr addr, PageBlock* block) {
  if (addr >= capacity_) {
    return Status::kInvalidArgument;
  }
  for (int attempt = 1;; ++attempt) {
    ++writes_;
    machine_->SyncTransfer(machine_->costs().io_start_overhead + write_latency_,
                           &write_busy_until_);
    machine_->charges_mutable().Increment("page_io", write_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceWrite, addr);
    if (fault == Status::kOk) {
      StoreBlock(addr, std::move(*block));
      return Status::kOk;
    }
    if (attempt >= kMaxTransferAttempts) {
      ++failed_transfers_;
      return fault;
    }
    ++retries_;
    machine_->Charge(BackoffFor(attempt), "fault_recovery");
  }
}

void PagingDevice::StartRead(DevAddr addr, ReadMode mode, ReadDone done, bool urgent,
                             int attempt) {
  ++reads_;
  Cycles* channel = urgent ? &urgent_busy_until_ : &read_busy_until_;
  const Cycles when = ScheduleTransfer(read_latency_, channel);
  machine_->events().ScheduleAt(when, [this, addr, mode, done = std::move(done), urgent,
                                       attempt]() mutable {
    machine_->charges_mutable().Increment("page_io", read_latency_);
    Status fault = ConsultTransfer(InjectSite::kDeviceRead, addr);
    if (fault != Status::kOk) {
      if (attempt < kMaxTransferAttempts) {
        ++retries_;
        const Cycles backoff = BackoffFor(attempt);
        machine_->charges_mutable().Increment("fault_recovery", backoff);
        machine_->events().ScheduleAfter(
            backoff, [this, addr, mode, done = std::move(done), urgent, attempt]() mutable {
              StartRead(addr, mode, std::move(done), urgent, attempt + 1);
            });
        return;
      }
      ++failed_transfers_;
      if (interrupts_ != nullptr) {
        (void)interrupts_->Assert(line_, addr);
      }
      done(fault, nullptr);
      return;
    }
    PageBlock block;
    Status st = ReadBlock(addr, mode, &block);
    if (interrupts_ != nullptr) {
      (void)interrupts_->Assert(line_, addr);
    }
    done(st, std::move(block));
  });
}

void PagingDevice::StartWrite(DevAddr addr, PageBlock block, WriteDone done, int attempt) {
  ++writes_;
  const Cycles when = ScheduleTransfer(write_latency_, &write_busy_until_);
  machine_->events().ScheduleAt(
      when, [this, addr, block = std::move(block), done = std::move(done), attempt]() mutable {
        machine_->charges_mutable().Increment("page_io", write_latency_);
        Status fault = ConsultTransfer(InjectSite::kDeviceWrite, addr);
        if (fault != Status::kOk) {
          if (attempt < kMaxTransferAttempts) {
            ++retries_;
            const Cycles backoff = BackoffFor(attempt);
            machine_->charges_mutable().Increment("fault_recovery", backoff);
            machine_->events().ScheduleAfter(
                backoff,
                [this, addr, block = std::move(block), done = std::move(done), attempt]() mutable {
                  StartWrite(addr, std::move(block), std::move(done), attempt + 1);
                });
            return;
          }
          ++failed_transfers_;
          if (interrupts_ != nullptr) {
            (void)interrupts_->Assert(line_, addr);
          }
          done(fault, std::move(block));  // The caller keeps the only copy.
          return;
        }
        StoreBlock(addr, std::move(block));
        if (interrupts_ != nullptr) {
          (void)interrupts_->Assert(line_, addr);
        }
        done(Status::kOk, nullptr);
      });
}

void PagingDevice::ReadAsync(DevAddr addr, ReadMode mode, ReadDone done) {
  if (addr >= capacity_) {
    machine_->events().ScheduleAfter(0, [done = std::move(done)] {
      done(Status::kInvalidArgument, nullptr);
    });
    return;
  }
  StartRead(addr, mode, std::move(done), /*urgent=*/false, /*attempt=*/1);
}

void PagingDevice::WriteAsync(DevAddr addr, PageBlock block, WriteDone done) {
  if (addr >= capacity_) {
    machine_->events().ScheduleAfter(
        0, [block = std::move(block), done = std::move(done)]() mutable {
          done(Status::kInvalidArgument, std::move(block));
        });
    return;
  }
  StartWrite(addr, std::move(block), std::move(done), /*attempt=*/1);
}

void PagingDevice::ReadAsyncUrgent(DevAddr addr, ReadMode mode, ReadDone done) {
  if (addr >= capacity_) {
    machine_->events().ScheduleAfter(0, [done = std::move(done)] {
      done(Status::kInvalidArgument, nullptr);
    });
    return;
  }
  StartRead(addr, mode, std::move(done), /*urgent=*/true, /*attempt=*/1);
}

PagingDevice MakeBulkStore(uint32_t pages, Machine* machine) {
  const CostModel& costs = machine->costs();
  return PagingDevice("bulk-store", pages, costs.bulk_store_read, costs.bulk_store_write,
                      machine);
}

PagingDevice MakeDisk(uint32_t pages, Machine* machine) {
  const CostModel& costs = machine->costs();
  return PagingDevice("disk", pages, costs.disk_read, costs.disk_write, machine);
}

}  // namespace multics
