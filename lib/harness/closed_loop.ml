module Rng = Repro_util.Rng
module Op = Workload.Op

type dist = Uniform | Skewed

(* The skewed distribution concentrates 80% of all endpoint draws on a hot
   range of [max 16 (n/256)] nodes, so with several domains nearly every
   operation contends on the same few trees — the regime where link-CAS
   backoff and the memory orders matter most.  (A Zipf sampler would need
   per-draw float work inside the generator; a two-level hot/cold mix gets
   the same contention with integer arithmetic only.) *)
let hot_range n = max 16 (n / 256)

let gen_endpoint rng ~n ~dist =
  match dist with
  | Uniform -> Rng.int rng n
  | Skewed -> if Rng.int rng 100 < 80 then Rng.int rng (hot_range n) else Rng.int rng n

(* Per-domain op streams are generated outside the timed section (the
   generator's RNG and list building must not pollute the measurement) and
   handed to the workers as contiguous arrays — see Workload.Op's array
   runners for why. *)
let gen_ops ?(dist = Uniform) ~n ~unite_percent ~seed ~domains ~ops_per_domain
    () =
  Array.init domains (fun k ->
      let rng = Rng.create (seed + (1000 * k)) in
      Array.init ops_per_domain (fun _ ->
          let x = gen_endpoint rng ~n ~dist and y = gen_endpoint rng ~n ~dist in
          if Rng.int rng 100 < unite_percent then Op.Unite (x, y)
          else Op.Same_set (x, y)))

let applier ~unite ~same_set ~find ops =
  Array.iter
    (function
      | Op.Unite (x, y) -> unite x y
      | Op.Same_set (x, y) -> ignore (same_set x y : bool)
      | Op.Find x -> ignore (find x : int))
    ops

type 'a result = {
  seconds : float;
  ops : int;
  ops_per_sec : float;
  failures : (int * string) list;
  during : 'a option;
}

(* Every worker body is wrapped so an exception in one domain is captured
   into its slot instead of escaping through [Domain.join]: re-raising
   mid-join would abandon the remaining joins, leaving live domains racing
   on a structure the caller believes quiesced.  All joins always complete
   (also when [during] or a later spawn raises); failures are reported
   per-domain afterwards. *)
let run ?during ~apply buckets =
  let errors = Array.make (Array.length buckets) None in
  let handles = ref [] in
  let t0 = Repro_obs.Clock.now_ns () in
  let during =
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !handles)
      (fun () ->
        Array.iteri
          (fun k bucket ->
            let worker () =
              try apply bucket
              with e -> errors.(k) <- Some (Printexc.to_string e)
            in
            handles := Domain.spawn worker :: !handles)
          buckets;
        Option.map (fun f -> f ()) during)
  in
  let seconds = float_of_int (Repro_obs.Clock.now_ns () - t0) /. 1e9 in
  let ops = Array.fold_left (fun acc b -> acc + Array.length b) 0 buckets in
  {
    seconds;
    ops;
    ops_per_sec = (if seconds > 0. then float_of_int ops /. seconds else 0.);
    failures =
      List.filter_map
        (fun k -> Option.map (fun msg -> (k, msg)) errors.(k))
        (List.init (Array.length errors) Fun.id);
    during;
  }

let raise_failures r =
  if r.failures <> [] then
    failwith
      (String.concat "; "
         (List.map
            (fun (k, msg) -> Printf.sprintf "domain %d: %s" k msg)
            r.failures))
