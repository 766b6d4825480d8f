(* Plan-space autotuner: sweep a set of Dsu.Plan points over one workload
   profile with the scalability harness, pick the fastest, and cache the
   verdict keyed by the profile's fingerprint so `--plan auto` is a file
   read on every run after the first. *)

module J = Repro_obs.Json
module Plan = Dsu.Plan

type profile = {
  n : int;
  domains : int;
  unite_percent : int;
  dist : Scalability.dist;
  total_ops : int;
  seed : int;
}

let default_profile =
  {
    n = 1 lsl 16;
    domains = Domain.recommended_domain_count () |> min 4 |> max 1;
    unite_percent = 30;
    dist = Scalability.Uniform;
    total_ops = 200_000;
    seed = 21;
  }

(* The cache key.  Every field that changes the measured regime is in it;
   nothing else is, so re-running with the same workload shape hits. *)
let fingerprint p =
  Printf.sprintf "n%d-d%d-u%d-%s-ops%d-s%d" p.n p.domains p.unite_percent
    (Scalability.dist_to_string p.dist)
    p.total_ops p.seed

type measurement = {
  plan : Plan.t;
  mops_per_sec : float;
  failures : int;  (** worker exceptions during the timed run *)
}

type result = {
  profile : profile;
  winner : Plan.t;
  winner_mops : float;
  runner_up : Plan.t option;
  margin_over_runner_up_pct : float;
  margin_over_default_pct : float;
      (** winner vs {!Dsu.Plan.default} on the same profile; 0 when the
          default wins *)
  measurements : measurement list;
}

let config_of_profile p =
  {
    Scalability.default_config with
    Scalability.n = p.n;
    total_ops = p.total_ops;
    unite_percent = p.unite_percent;
    seed = p.seed;
    domain_counts = [ p.domains ];
    dists = [ p.dist ];
  }

let measure ?(repeats = 1) ~profile plan =
  let config = config_of_profile profile in
  let best = ref neg_infinity in
  let failures = ref 0 in
  for _ = 1 to max 1 repeats do
    let pt =
      Scalability.run_point ~config ~dist:profile.dist ~plan
        ~domains:profile.domains ()
    in
    failures := !failures + List.length pt.Scalability.failures;
    if pt.Scalability.mops_per_sec > !best then
      best := pt.Scalability.mops_per_sec
  done;
  { plan; mops_per_sec = !best; failures = !failures }

let pct_over a b = if b <= 0. then 0. else (a -. b) /. b *. 100.

let run ?(plans = Plan.candidates) ?repeats ?progress ~profile () =
  if plans = [] then invalid_arg "Autotune.run: empty plan list";
  (* The default plan is always measured: the winner's margin over it is
     what `--guard-tuned` gates on. *)
  let plans =
    if List.exists (Plan.equal Plan.default) plans then plans
    else Plan.default :: plans
  in
  let measurements =
    List.map
      (fun plan ->
        let m = measure ?repeats ~profile plan in
        (match progress with None -> () | Some f -> f m);
        m)
      plans
  in
  (* A plan whose run failed in a worker is not a candidate winner. *)
  let healthy = List.filter (fun m -> m.failures = 0) measurements in
  let ranked =
    List.sort
      (fun a b -> compare b.mops_per_sec a.mops_per_sec)
      (if healthy = [] then measurements else healthy)
  in
  let winner = List.hd ranked in
  let runner_up = match ranked with _ :: r :: _ -> Some r | _ -> None in
  let default_mops =
    List.find_opt (fun m -> Plan.equal m.plan Plan.default) measurements
    |> Option.map (fun m -> m.mops_per_sec)
    |> Option.value ~default:winner.mops_per_sec
  in
  {
    profile;
    winner = winner.plan;
    winner_mops = winner.mops_per_sec;
    runner_up = Option.map (fun m -> m.plan) runner_up;
    margin_over_runner_up_pct =
      (match runner_up with
      | None -> 0.
      | Some r -> pct_over winner.mops_per_sec r.mops_per_sec);
    margin_over_default_pct = pct_over winner.mops_per_sec default_mops;
    measurements;
  }

(* ------------------------------------------------------------- codec *)

let schema = "dsu-autotune/v1"

let profile_to_json p =
  J.Obj
    [
      ("n", J.Int p.n);
      ("domains", J.Int p.domains);
      ("unite_percent", J.Int p.unite_percent);
      ("dist", J.String (Scalability.dist_to_string p.dist));
      ("total_ops", J.Int p.total_ops);
      ("seed", J.Int p.seed);
    ]

let measurement_to_json m =
  J.Obj
    [
      ("plan", J.String (Plan.to_string m.plan));
      ("mops_per_sec", J.Float m.mops_per_sec);
      ("failures", J.Int m.failures);
    ]

let to_json r =
  J.Obj
    [
      ("schema", J.String schema);
      ("fingerprint", J.String (fingerprint r.profile));
      ("profile", profile_to_json r.profile);
      ("winner", J.String (Plan.to_string r.winner));
      ("winner_mops_per_sec", J.Float r.winner_mops);
      ( "runner_up",
        match r.runner_up with
        | None -> J.Null
        | Some p -> J.String (Plan.to_string p) );
      ("margin_over_runner_up_pct", J.Float r.margin_over_runner_up_pct);
      ("margin_over_default_pct", J.Float r.margin_over_default_pct);
      ("measurements", J.List (List.map measurement_to_json r.measurements));
    ]

let ( let* ) = Result.bind

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "autotune document: missing field %S" name)

let int_field name j =
  let* v = field name j in
  match v with
  | J.Int i -> Ok i
  | _ -> Error (Printf.sprintf "autotune document: field %S is not an integer" name)

let float_field name j =
  let* v = field name j in
  match v with
  | J.Float f -> Ok f
  | J.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "autotune document: field %S is not a number" name)

let str_field name j =
  let* v = field name j in
  match v with
  | J.String s -> Ok s
  | _ -> Error (Printf.sprintf "autotune document: field %S is not a string" name)

let plan_field name j =
  let* s = str_field name j in
  Plan.of_string s

let profile_of_json j =
  let* n = int_field "n" j in
  let* domains = int_field "domains" j in
  let* unite_percent = int_field "unite_percent" j in
  let* dist_s = str_field "dist" j in
  let* dist =
    match Scalability.dist_of_string dist_s with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "autotune document: unknown dist %S" dist_s)
  in
  let* total_ops = int_field "total_ops" j in
  let* seed = int_field "seed" j in
  Ok { n; domains; unite_percent; dist; total_ops; seed }

let of_json j =
  let* s = str_field "schema" j in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  in
  let* pj = field "profile" j in
  let* profile = profile_of_json pj in
  let* winner = plan_field "winner" j in
  let* winner_mops = float_field "winner_mops_per_sec" j in
  let runner_up =
    match J.member "runner_up" j with
    | Some (J.String s) -> Result.to_option (Plan.of_string s)
    | _ -> None
  in
  let* margin_over_runner_up_pct = float_field "margin_over_runner_up_pct" j in
  let* margin_over_default_pct = float_field "margin_over_default_pct" j in
  let* measurements =
    let* mj = field "measurements" j in
    match mj with
    | J.List ms ->
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* plan = plan_field "plan" m in
          let* mops_per_sec = float_field "mops_per_sec" m in
          let* failures = int_field "failures" m in
          Ok ({ plan; mops_per_sec; failures } :: acc))
        (Ok []) ms
      |> Result.map List.rev
    | _ -> Error "autotune document: measurements is not an array"
  in
  Ok
    {
      profile;
      winner;
      winner_mops;
      runner_up;
      margin_over_runner_up_pct;
      margin_over_default_pct;
      measurements;
    }

let of_json_string s =
  match J.parse s with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> of_json j

(* ------------------------------------------------------------- cache *)

let default_cache_dir = ".dsu-autotune"
let cache_path ~dir profile = Filename.concat dir (fingerprint profile ^ ".json")

let load_cached ~dir profile =
  let path = cache_path ~dir profile in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | exception End_of_file -> None
  | data -> (
    match of_json_string data with
    | Error _ -> None (* a corrupt cache entry is just a miss *)
    | Ok r -> if fingerprint r.profile = fingerprint profile then Some r else None)

let store ~dir r =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = cache_path ~dir r.profile in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string (to_json r)))

let auto ?plans ?repeats ?(cache_dir = default_cache_dir) ?progress ~profile ()
    =
  match load_cached ~dir:cache_dir profile with
  | Some r -> (r, `Cached)
  | None ->
    let r = run ?plans ?repeats ?progress ~profile () in
    (try store ~dir:cache_dir r
     with Sys_error _ | Unix.Unix_error _ -> () (* cache is best-effort *));
    (r, `Measured)

let pp ppf r =
  Format.fprintf ppf
    "autotune %s: winner %s (%.2f Mops/s, +%.1f%% vs runner-up %s, +%.1f%% \
     vs default)"
    (fingerprint r.profile) (Plan.to_string r.winner) r.winner_mops
    r.margin_over_runner_up_pct
    (match r.runner_up with None -> "-" | Some p -> Plan.to_string p)
    r.margin_over_default_pct;
  List.iter
    (fun m ->
      Format.fprintf ppf "@.  %-45s %8.2f Mops/s%s" (Plan.to_string m.plan)
        m.mops_per_sec
        (if m.failures = 0 then ""
         else Printf.sprintf "  (%d worker failures)" m.failures))
    r.measurements
