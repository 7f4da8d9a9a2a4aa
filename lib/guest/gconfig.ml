type t = { mem_pages : int; swap_blocks : int; misaligned_io_percent : int }

let default ~mem_mb =
  {
    mem_pages = Storage.Geom.pages_of_mb mem_mb;
    swap_blocks = Storage.Geom.pages_of_mb 1024;
    misaligned_io_percent = 0;
  }
