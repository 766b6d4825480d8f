(* Perf-regression differ over the repo's benchmark JSON documents.

   Auto-detects the document kind (bechamel [bench --out], dsu-scalability,
   dsu-load, dsu-drill, dsu-durability, dsu-connectivity, dsu-autotune),
   extracts keyed scalar metrics with a better-direction, and flags
   relative deltas beyond a noise threshold.
   Structural problems (unparseable JSON, unrecognized schema, mismatched
   kinds) are [Error]s so CLI callers can map them onto their usage-error
   exit; a changed autotune winner is only a [warnings] line — two valid
   tuning runs may legitimately disagree. *)

module J = Repro_obs.Json

type direction = Lower_better | Higher_better

type row = {
  key : string;  (* which measured configuration *)
  metric : string;
  dir : direction;
  base : float;
  current : float;
  delta_pct : float;  (* signed: (current - base) / base * 100 *)
}

type report = {
  kind : string;
  threshold_pct : float;
  rows : row list;
  regressions : row list;
  improvements : row list;
  only_base : string list;  (* keys present only in the baseline *)
  only_current : string list;
  warnings : string list;
      (* non-fatal observations, e.g. an autotune winner change *)
}

(* ------------------------------------------------------------ extract *)

(* A document flattens to (key, metric, direction, value) tuples. *)
type entry = { e_key : string; e_metric : string; e_dir : direction; e_value : float }

let num = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let str = function J.String s -> Some s | _ -> None
let mem name j = J.member name j

let num_field name j = Option.bind (mem name j) num
let str_field name j = Option.bind (mem name j) str

let ( let* ) = Option.bind

let bechamel_entries doc =
  let* results = mem "results" doc in
  match results with
  | J.List rs ->
    Some
      (List.filter_map
         (fun r ->
           let* name = str_field "name" r in
           let* v = num_field "ns_per_run" r in
           Some
             { e_key = name; e_metric = "ns_per_run"; e_dir = Lower_better;
               e_value = v })
         rs)
  | _ -> None

let scalability_entries doc =
  let* points = mem "points" doc in
  match points with
  | J.List ps ->
    Some
      (List.filter_map
         (fun p ->
           let part name =
             match mem name p with
             | Some (J.String s) -> name ^ "=" ^ s
             | Some (J.Int i) -> name ^ "=" ^ string_of_int i
             | Some (J.Bool b) -> name ^ "=" ^ string_of_bool b
             | _ -> ""
           in
           let key =
             [ "layout"; "policy"; "order"; "backoff"; "dist"; "domains" ]
             |> List.map part
             |> List.filter (fun s -> s <> "")
             |> String.concat " "
           in
           let* v = num_field "mops_per_sec" p in
           Some
             { e_key = key; e_metric = "mops_per_sec"; e_dir = Higher_better;
               e_value = v })
         ps)
  | _ -> None

(* dsu-load/v1 sweep points: throughput up-is-good, tail latency
   down-is-good, keyed by offered rate — [serve rate=…] on the Service
   target, [rate=…] on the Direct one. *)
let load_entries doc =
  let prefix =
    match str_field "target" doc with
    | Some "service" -> "serve rate="
    | _ -> "rate="
  in
  let* points = mem "points" doc in
  match points with
  | J.List ps ->
    Some
      (List.concat_map
         (fun p ->
           let key =
             match num_field "offered_rate" p with
             | Some r -> Printf.sprintf "%s%.0f" prefix r
             | None -> prefix ^ "?"
           in
           let lat name =
             let* l = mem "latency" p in
             num_field name l
           in
           List.filter_map Fun.id
             [
               (let* v = lat "p99_ns" in
                Some
                  { e_key = key; e_metric = "latency_p99_ns";
                    e_dir = Lower_better; e_value = v });
               (let* v = lat "p999_ns" in
                Some
                  { e_key = key; e_metric = "latency_p999_ns";
                    e_dir = Lower_better; e_value = v });
               (let* v = num_field "achieved_rate" p in
                Some
                  { e_key = key; e_metric = "achieved_rate";
                    e_dir = Higher_better; e_value = v });
             ])
         ps)
  | _ -> None

(* dsu-drill/v1: the scenarios that measured an RTO (down-is-good; RPO
   is a correctness gate, not a perf metric, so it is not diffed). *)
let drill_entries doc =
  let* scenarios = mem "scenarios" doc in
  match scenarios with
  | J.List ds ->
    Some
      (List.filter_map
         (fun d ->
           let field f = Option.value ~default:"?" (str_field f d) in
           let key =
             "drill "
             ^ String.concat "/" (List.map field [ "layout"; "policy"; "depth" ])
           in
           let* v = num_field "rto_ns" d in
           Some
             { e_key = key; e_metric = "rto_ns"; e_dir = Lower_better;
               e_value = v })
         ds)
  | _ -> None

let durability_entries doc =
  let* points = mem "points" doc in
  match points with
  | J.List ps ->
    Some
      (List.concat_map
         (fun p ->
           let key = Option.value ~default:"?" (str_field "name" p) in
           List.filter_map Fun.id
             [
               (let* v = num_field "mops_per_sec" p in
                Some
                  { e_key = key; e_metric = "mops_per_sec";
                    e_dir = Higher_better; e_value = v });
               (let* v = num_field "pause_ns" p in
                Some
                  { e_key = key; e_metric = "pause_ns"; e_dir = Lower_better;
                    e_value = v });
             ])
         ps)
  | _ -> None

(* dsu-connectivity/v1: pipeline points (total and finish-phase
   edges/sec up-is-good), streamed baselines, and the adversarial PT
   point (ops/sec up-is-good).  The skipped ratio is workload shape, not
   a perf metric, so it is not diffed. *)
let connectivity_entries doc =
  let points =
    match mem "points" doc with
    | Some (J.List ps) ->
      Some
        (List.concat_map
           (fun p ->
             let part name =
               match mem name p with
               | Some (J.String s) -> name ^ "=" ^ s
               | Some (J.Int i) -> name ^ "=" ^ string_of_int i
               | _ -> ""
             in
             let key =
               [ "gen"; "mode"; "sampling"; "finish"; "domains" ]
               |> List.map part
               |> List.filter (fun s -> s <> "")
               |> String.concat " "
             in
             List.filter_map Fun.id
               [
                 (let* v = num_field "edges_per_sec" p in
                  Some
                    { e_key = key; e_metric = "edges_per_sec";
                      e_dir = Higher_better; e_value = v });
                 (let* v = num_field "finish_edges_per_sec" p in
                  Some
                    { e_key = key; e_metric = "finish_edges_per_sec";
                      e_dir = Higher_better; e_value = v });
               ])
           ps)
    | _ -> None
  in
  let baselines =
    match mem "baselines" doc with
    | Some (J.List bs) ->
      Some
        (List.filter_map
           (fun b ->
             let name = Option.value ~default:"?" (str_field "name" b) in
             let gen = Option.value ~default:"?" (str_field "gen" b) in
             let domains =
               match num_field "domains" b with
               | Some d -> string_of_int (int_of_float d)
               | None -> "?"
             in
             let* v = num_field "edges_per_sec" b in
             Some
               { e_key =
                   Printf.sprintf "baseline=%s gen=%s domains=%s" name gen
                     domains;
                 e_metric = "edges_per_sec"; e_dir = Higher_better;
                 e_value = v })
           bs)
    | _ -> None
  in
  let adversarial =
    match mem "adversarial" doc with
    | Some a ->
      let* v = num_field "ops_per_sec" a in
      let domains =
        match num_field "domains" a with
        | Some d -> string_of_int (int_of_float d)
        | None -> "?"
      in
      Some
        [
          { e_key = "adversarial=pt domains=" ^ domains;
            e_metric = "ops_per_sec"; e_dir = Higher_better; e_value = v };
        ]
    | None -> None
  in
  match (points, baselines, adversarial) with
  | None, None, None -> None
  | _ ->
    Some
      (Option.value ~default:[] points
      @ Option.value ~default:[] baselines
      @ Option.value ~default:[] adversarial)

let autotune_entries doc =
  let* ms = mem "measurements" doc in
  match ms with
  | J.List ms ->
    Some
      (List.filter_map
         (fun m ->
           let* plan = str_field "plan" m in
           let* v = num_field "mops_per_sec" m in
           Some
             { e_key = "plan=" ^ plan; e_metric = "mops_per_sec";
               e_dir = Higher_better; e_value = v })
         ms)
  | _ -> None

let classify doc =
  match mem "schema" doc with
  | Some (J.String s) when String.length s >= 15
                           && String.sub s 0 15 = "dsu-scalability" ->
    Some (s, scalability_entries)
  | Some (J.String s) when String.length s >= 8
                           && String.sub s 0 8 = "dsu-load" ->
    Some (s, load_entries)
  | Some (J.String s) when String.length s >= 9
                           && String.sub s 0 9 = "dsu-drill" ->
    Some (s, drill_entries)
  | Some (J.String s) when String.length s >= 14
                           && String.sub s 0 14 = "dsu-durability" ->
    Some (s, durability_entries)
  | Some (J.String s) when String.length s >= 16
                           && String.sub s 0 16 = "dsu-connectivity" ->
    Some (s, connectivity_entries)
  | Some (J.String s) when String.length s >= 12
                           && String.sub s 0 12 = "dsu-autotune" ->
    Some (s, autotune_entries)
  | _ -> (
    match mem "results" doc with
    | Some _ -> Some ("bechamel", bechamel_entries)
    | None -> None)

let extract doc =
  match classify doc with
  | None ->
    Error
      "unrecognized perf document (expected bechamel results, \
       dsu-scalability/*, dsu-load/*, dsu-drill/*, dsu-durability/*, \
       dsu-connectivity/* or dsu-autotune/*)"
  | Some (kind, f) -> (
    match f doc with
    | Some entries -> Ok (kind, entries)
    | None -> Error (Printf.sprintf "malformed %s document" kind))

(* --------------------------------------------------------------- diff *)

let diff ?(threshold_pct = 10.0) ~base ~current () =
  match (extract base, extract current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok (kb, eb), Ok (kc, ec) ->
    if kb <> kc then
      Error (Printf.sprintf "kind mismatch: baseline is %s, current is %s" kb kc)
    else begin
      let id e = e.e_key ^ "/" ^ e.e_metric in
      let rows =
        List.filter_map
          (fun b ->
            match List.find_opt (fun c -> id c = id b) ec with
            | None -> None
            | Some c ->
              let delta_pct =
                if b.e_value = 0.0 then
                  if c.e_value = 0.0 then 0.0 else infinity
                else (c.e_value -. b.e_value) /. b.e_value *. 100.0
              in
              Some
                { key = b.e_key; metric = b.e_metric; dir = b.e_dir;
                  base = b.e_value; current = c.e_value; delta_pct })
          eb
      in
      let worse r =
        match r.dir with
        | Lower_better -> r.delta_pct > threshold_pct
        | Higher_better -> r.delta_pct < -.threshold_pct
      in
      let better r =
        match r.dir with
        | Lower_better -> r.delta_pct < -.threshold_pct
        | Higher_better -> r.delta_pct > threshold_pct
      in
      let matched b = List.exists (fun c -> id c = id b) in
      (* An autotune run picking a different winner than the baseline is
         worth surfacing but is not a regression in itself — the per-plan
         rows above already capture any throughput movement. *)
      let warnings =
        if String.length kb >= 12 && String.sub kb 0 12 = "dsu-autotune"
        then
          match (str_field "winner" base, str_field "winner" current) with
          | Some wb, Some wc when wb <> wc ->
            [ Printf.sprintf "tuned plan changed: %s -> %s" wb wc ]
          | _ -> []
        else []
      in
      Ok
        {
          kind = kb;
          threshold_pct;
          rows;
          regressions = List.filter worse rows;
          improvements = List.filter better rows;
          only_base =
            List.filter_map
              (fun b -> if matched b ec then None else Some (id b))
              eb;
          only_current =
            List.filter_map
              (fun c -> if matched c eb then None else Some (id c))
              ec;
          warnings;
        }
    end

let diff_strings ?threshold_pct ~base ~current () =
  match (J.parse base, J.parse current) with
  | Error e, _ -> Error ("baseline: malformed JSON: " ^ e)
  | _, Error e -> Error ("current: malformed JSON: " ^ e)
  | Ok b, Ok c -> diff ?threshold_pct ~base:b ~current:c ()

(* ------------------------------------------------------------- output *)

let row_json r =
  J.Obj
    [
      ("key", J.String r.key);
      ("metric", J.String r.metric);
      ( "direction",
        J.String
          (match r.dir with
          | Lower_better -> "lower-better"
          | Higher_better -> "higher-better") );
      ("base", J.Float r.base);
      ("current", J.Float r.current);
      ("delta_pct", J.Float r.delta_pct);
    ]

let to_json rep =
  J.Obj
    [
      ("schema", J.String "dsu-perfdiff/v1");
      ("kind", J.String rep.kind);
      ("threshold_pct", J.Float rep.threshold_pct);
      ("compared", J.Int (List.length rep.rows));
      ("regressions", J.List (List.map row_json rep.regressions));
      ("improvements", J.List (List.map row_json rep.improvements));
      ("only_baseline", J.List (List.map (fun s -> J.String s) rep.only_base));
      ("only_current", J.List (List.map (fun s -> J.String s) rep.only_current));
      ("warnings", J.List (List.map (fun s -> J.String s) rep.warnings));
    ]

let pp ppf rep =
  Format.fprintf ppf
    "perfdiff (%s, threshold %.1f%%): %d compared, %d regressions, %d \
     improvements@."
    rep.kind rep.threshold_pct (List.length rep.rows)
    (List.length rep.regressions)
    (List.length rep.improvements);
  let pp_row tag r =
    Format.fprintf ppf "  %s %s %s: %.1f -> %.1f (%+.1f%%)@." tag r.key
      r.metric r.base r.current r.delta_pct
  in
  List.iter (pp_row "REGRESSION") rep.regressions;
  List.iter (pp_row "improvement") rep.improvements;
  List.iter (fun w -> Format.fprintf ppf "  warning: %s@." w) rep.warnings;
  List.iter (fun k -> Format.fprintf ppf "  only in baseline: %s@." k)
    rep.only_base;
  List.iter (fun k -> Format.fprintf ppf "  only in current: %s@." k)
    rep.only_current
