module Rng = Repro_util.Rng

(* ------------------------------------------------------------------ *)
(* Determinism checking for the bulk connectivity engine — the
   lincheck-style companion to {!Checker}: instead of searching for a
   linearization of one observed history, it replays the *same input
   stream* under many schedules (domain counts x perturbation seeds x
   injected yields) and demands byte-identical output — the labels and
   the round count, since min-id labels alone are the same for any
   correct engine.

   The check has teeth in both directions:

   - {!check} must find a single digest across every schedule of the
     deterministic engine, or the run is a counterexample (reported with
     the offending configuration);
   - {!distinguish} demonstrates the racy engine really is
     schedule-dependent: its *normalized labels* agree (connectivity is
     correct under any schedule) while its raw parent forests differ
     across schedules for some seed — evidence the determinism property
     is a property of the engine, not of the workload. *)

type outcome = {
  digest : string;  (** digest of the agreed labels and rounds (when [ok]) *)
  runs : int;
  ok : bool;
  failures : string list;
      (** one ["domains=D perturb=S: <got> (expected <ref>)"] line per
          disagreeing run *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let digest_labels (labels : int array) = digest labels

(* A pseudo-random sleep schedule: perturb domain [d] after round [r]
   with probability ~1/4, sleeping up to ~200us.  Enough jitter to
   reorder every barrier race on a real machine without stalling CI. *)
let yield_schedule perturb_seed =
  fun ~domain ~round ->
    let h = Rng.create ((perturb_seed * 7919) + (domain * 613) + round) in
    if Rng.int h 4 = 0 then Unix.sleepf (float_of_int (Rng.int h 200) /. 1e6)

let check ?(domain_counts = [ 1; 2; 4 ]) ?(perturb_seeds = [ 0; 1; 2 ])
    ~run () =
  let reference = ref None in
  let runs = ref 0 in
  let failures = ref [] in
  List.iter
    (fun domains ->
      List.iter
        (fun perturb_seed ->
          let on_round =
            if perturb_seed = 0 then fun ~domain:_ ~round:_ -> ()
            else yield_schedule perturb_seed
          in
          let (labels : int array), (rounds : int) = run ~domains ~on_round in
          let d = digest (labels, rounds) in
          incr runs;
          match !reference with
          | None -> reference := Some d
          | Some r ->
            if d <> r then
              failures :=
                Printf.sprintf "domains=%d perturb=%d: %s (expected %s)"
                  domains perturb_seed d r
                :: !failures)
        perturb_seeds)
    domain_counts;
  {
    digest = Option.value ~default:"" !reference;
    runs = !runs;
    ok = !failures = [];
    failures = List.rev !failures;
  }

let distinguish ?(schedules = [ (1, 0); (2, 0); (4, 0); (4, 1) ]) ~run () =
  let digests =
    List.map
      (fun (domains, variant) ->
        digest_labels (run ~domains ~variant))
      schedules
  in
  match digests with
  | [] -> false
  | d :: rest -> List.exists (fun d' -> d' <> d) rest
