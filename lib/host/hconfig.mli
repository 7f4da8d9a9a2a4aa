(** Hypervisor-side tunables.

    Only what callers vary lives here: memory size and watermarks, swap
    readahead, the reclaim preference, and the async-fault, scrubber
    and QoS switches.  The CPU cost model, the hosted hypervisor's
    footprint and the I/O retry policy are constants of {!Hostmm}.
    {!Hostmm.create} rejects a field outside its stated range with
    [Invalid_argument] naming it. *)

type t = {
  total_frames : int;  (** host physical memory, in pages; [>= 1] *)
  low_watermark_frames : int;
      (** direct reclaim triggers below this; [>= 0] *)
  high_watermark_frames : int;
      (** reclaim refills free frames up to this;
          [>= low_watermark_frames] *)
  page_cluster : int;
      (** log2 of the swap readahead cluster (Linux vm.page-cluster); 3
          means 8-page clusters; in [0, 16] *)
  named_preference : bool;
      (** reclaim prefers file-backed pages over anonymous ones, like
          Linux; turning this off is the D3 ablation *)
  max_inflight_faults : int;
      (** per-guest bound on concurrently in-flight target faults; starts
          beyond it are queued and released as completions drain.  0 means
          unbounded (the default).  Prefetch markers never count.
          [>= 0] *)
  scrub_rate_pages_s : int;
      (** background scrubber scan rate in allocated slots verified per
          simulated second; 0 disables the scrubber (the default);
          [>= 0] *)
  scrub_repair_budget : int;
      (** relocations the scrubber may perform per full pass over the
          swap area, so repair traffic cannot starve foreground I/O;
          [>= 0] *)
  qos_rate : int;
      (** per-guest token-bucket refill rate, swap-in faults per
          simulated second; 0 disables QoS admission (the default);
          [>= 0] *)
  qos_burst : int;
      (** token-bucket depth: faults a guest may issue back-to-back
          before the rate limit bites; [>= 1] when [qos_rate > 0] *)
}

(** Defaults sized for experiments that cap a guest at a few hundred MB;
    [total_frames] and watermarks are meant to be overridden per
    experiment via [with_memory_mb]. *)
val default : t

(** [with_memory_mb t mb] sets [total_frames] and derives watermarks
    (0.6 % / 1.2 % of memory, with sane minima). *)
val with_memory_mb : t -> int -> t

(** "VMware-Workstation flavour" used by the Table 2 reproduction: no
    named preference, single-page swap readahead. *)
val workstation_flavour : t -> t
