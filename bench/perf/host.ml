(* Host speed, measured while the engine runs.

   The benchmark was built on a 2-vCPU virtual machine whose cores are
   shared with other tenants: the same code ran up to 1.8x slower for
   seconds at a time, and ten runs of one workload spread by a quarter.
   A raw time then reports the neighbours as much as the engine. So a
   fixed kernel is timed, and the run's times are divided by its
   [slowdown]: the kernel's mean time over [reference_ns].

   - On one domain, flat out, the feed calls [probe] every [every]
     packets, inside the measured run. A paced run is not probed (see
     Workload.probes).
   - On two domains ([pair]) the kernel runs on this domain and on a
     helper domain at once, just before and just after the run, so both
     vCPUs are timed while both are busy, as they are in the run. A
     probe on domain 0 alone timed only one of them, and widened
     e2_sharded's spread instead of narrowing it.
   - Set-up time is scaled by a probe taken just before each cycle.

   The kernel is random read-modify-writes over a 32 KB array, warmed
   before it is timed, so its time depends on how fast the core runs
   and not on what the engine left in the caches (a 4 MB kernel timed
   the engine's cache footprint instead). It allocates nothing, so the
   heap metrics are untouched. Of the kernels tried, it tracked the
   engine's slowdowns best: over ten seeded runs of e2_local in a busy
   hour it cut the spread of throughput from 43% raw to 2.3% scaled
   (README.md has the runs).

   Scaled times read as they would on the reference host; the results
   file keeps the raw times next to them. *)

module Clock = Gigascope_obs.Clock

(* The kernel's time on an uncontended core of the reference host (a
   2-vCPU Xeon at 2.1 GHz): the 1st percentile of 2000 timings. *)
let reference_ns = 155_000.0

let every = 4096

let size = 4096

(* Allocated once at start-up, before any measured heap reading. *)
let buf = Array.make size 0

let kernel ?(buf = buf) () =
  for j = 0 to size - 1 do
    Array.unsafe_set buf j (Array.unsafe_get buf j + 1)
  done;
  let t0 = Clock.now_ns () in
  let x = ref 0x2545F4914F6CDD1D in
  for i = 1 to 100_000 do
    let j = (!x lxor (!x lsr 29)) land (size - 1) in
    Array.unsafe_set buf j (Array.unsafe_get buf j + i);
    x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F
  done;
  Clock.now_ns () -. t0

type t = { mutable ns : float; mutable n : int; mutable total_ns : float }

let create () = { ns = 0.0; n = 0; total_ns = 0.0 }

(* [total_ns] includes the warm-up: it is what the probes took out of
   the measured run. *)
let probe t =
  let t0 = Clock.now_ns () in
  t.ns <- t.ns +. kernel ();
  t.n <- t.n + 1;
  t.total_ns <- t.total_ns +. (Clock.now_ns () -. t0)

(* [pair_kernels] on each of two domains at once, outside the measured
   run: the helper domain is spawned and joined here, with its own
   array, and [total_ns] is left alone. *)
let pair_kernels = 128

let pair t =
  let burst buf =
    let ns = ref 0.0 in
    for _ = 1 to pair_kernels do
      ns := !ns +. kernel ~buf ()
    done;
    !ns
  in
  let helper = Domain.spawn (fun () -> burst (Array.make size 0)) in
  let mine = burst buf in
  t.ns <- t.ns +. mine +. Domain.join helper;
  t.n <- t.n + (2 * pair_kernels)

(* How much slower than the reference host this run's host was. *)
let slowdown t = if t.n = 0 then 1.0 else t.ns /. float_of_int t.n /. reference_ns
