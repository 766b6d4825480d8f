(* One team of domains per parallel pass: every member runs the same
   body over its own share, and a sense-reversing barrier separates the
   pass's phases, so a pass spawns and joins its domains once however
   many phases it has. *)

let run ~domains f =
  if domains <= 1 then f 0 1
  else begin
    let handles =
      Array.init domains (fun k -> Domain.spawn (fun () -> f k domains))
    in
    let failure = ref None in
    Array.iter
      (fun h ->
        match Domain.join h with
        | () -> ()
        | exception e -> if !failure = None then failure := Some e)
      handles;
    match !failure with Some e -> raise e | None -> ()
  end

(* Sense-reversing barrier.  Bounded cpu_relax spinning, then short
   sleeps: on single-core CI hosts a pure spin waits out whole scheduler
   timeslices, and a pass crosses a barrier only once per phase, so the
   sleep's wake-up delay is paid rarely. *)
type barrier = { count : int Atomic.t; sense : bool Atomic.t; total : int }

let barrier total = { count = Atomic.make 0; sense = Atomic.make false; total }

let barrier_wait b ~local_sense =
  if Atomic.fetch_and_add b.count 1 = b.total - 1 then begin
    Atomic.set b.count 0;
    Atomic.set b.sense local_sense
  end
  else begin
    let spins = ref 0 in
    while Atomic.get b.sense <> local_sense do
      incr spins;
      if !spins < 4096 then Domain.cpu_relax () else Unix.sleepf 0.0002
    done
  end

let phased ~domains f =
  let b = barrier (max 1 domains) in
  run ~domains (fun k total ->
      let local_sense = ref true in
      f k total (fun () ->
          barrier_wait b ~local_sense:!local_sense;
          local_sense := not !local_sense))
