type t = {
  total_frames : int;
  low_watermark_frames : int;
  high_watermark_frames : int;
  page_cluster : int;
  named_preference : bool;
  max_inflight_faults : int;
  scrub_rate_pages_s : int;
  scrub_repair_budget : int;
  qos_rate : int;
  qos_burst : int;
}

let default =
  {
    total_frames = Storage.Geom.pages_of_mb 1024;
    low_watermark_frames = 64;
    high_watermark_frames = 128;
    page_cluster = 3;
    named_preference = true;
    max_inflight_faults = 0;
    scrub_rate_pages_s = 0;
    scrub_repair_budget = 8;
    qos_rate = 0;
    qos_burst = 32;
  }

let with_memory_mb t mb =
  let frames = Storage.Geom.pages_of_mb mb in
  let low = max 32 (frames * 6 / 1000) in
  let high = max 64 (frames * 12 / 1000) in
  {
    t with
    total_frames = frames;
    low_watermark_frames = low;
    high_watermark_frames = high;
  }

let workstation_flavour t =
  { t with named_preference = false; page_cluster = 0 }
