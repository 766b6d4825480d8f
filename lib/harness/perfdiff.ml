(* Perf-regression differ over the repo's benchmark JSON documents.

   Each document carries its own ["metrics"] list, written by
   {!metrics_field} in the module that measured the numbers, so the
   differ is schema-blind: it reads the ["schema"] (the kind; none means
   bechamel), the ["metrics"] list and a top-level ["winner"], pairs
   entries by key and metric, and flags relative deltas beyond a noise
   threshold.  Structural problems (unparseable JSON, no or malformed
   metrics list, a repeated entry, mismatched kinds) are [Error]s so CLI
   callers can map them onto their usage-error exit; a changed winner is
   only a [warnings] line — two valid tuning runs may legitimately
   disagree. *)

module J = Repro_obs.Json

type direction = Lower_better | Higher_better

type entry = { key : string; metric : string; dir : direction; value : float }

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
      (* non-fatal observations, e.g. a changed winner *)
}

let direction_to_string = function
  | Lower_better -> "lower-better"
  | Higher_better -> "higher-better"

(* ------------------------------------------------------------- write *)

(* Non-finite values serialize as [null], which no later run can be
   compared against, so they are left out of the list. *)
let metrics_field entries =
  ( "metrics",
    J.List
      (List.filter_map
         (fun (e : entry) ->
           if Float.is_finite e.value then
             Some
               (J.Obj
                  [
                    ("key", J.String e.key);
                    ("metric", J.String e.metric);
                    ("dir", J.String (direction_to_string e.dir));
                    ("value", J.Float e.value);
                  ])
           else None)
         entries) )

(* -------------------------------------------------------------- read *)

let id (e : entry) = e.key ^ "/" ^ e.metric

let entry_of_json m =
  let str name = match J.member name m with Some (J.String s) -> Some s | _ -> None in
  let value =
    match J.member "value" m with
    | Some (J.Int i) -> Some (float_of_int i)
    | Some (J.Float f) -> Some f
    | _ -> None
  in
  let dir =
    match str "dir" with
    | Some "lower-better" -> Some Lower_better
    | Some "higher-better" -> Some Higher_better
    | _ -> None
  in
  match (str "key", str "metric", dir, value) with
  | Some key, Some metric, Some dir, Some value -> Some { key; metric; dir; value }
  | _ -> None

(* The kind and the entries, indexed by [id]; every entry must parse and
   no [id] may repeat, since either would leave a row silently unpaired. *)
let extract doc =
  let kind =
    match J.member "schema" doc with Some (J.String s) -> s | _ -> "bechamel"
  in
  match J.member "metrics" doc with
  | Some (J.List ms) ->
    let index = Hashtbl.create 64 in
    let rec go acc = function
      | [] -> Ok (kind, List.rev acc, index)
      | m :: rest -> (
        match entry_of_json m with
        | None ->
          Error (Printf.sprintf "%s: malformed metrics entry %s" kind (J.to_string m))
        | Some e when Hashtbl.mem index (id e) ->
          Error (Printf.sprintf "%s: duplicate metrics entry %s" kind (id e))
        | Some e ->
          Hashtbl.add index (id e) e;
          go (e :: acc) rest)
    in
    go [] ms
  | _ -> Error (Printf.sprintf "%s: no \"metrics\" list" kind)

(* --------------------------------------------------------------- diff *)

let diff ?(threshold_pct = 10.0) ~base ~current () =
  match (extract base, extract current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok (kb, _, _), Ok (kc, _, _) when kb <> kc ->
    Error (Printf.sprintf "kind mismatch: baseline is %s, current is %s" kb kc)
  | Ok (kind, eb, ib), Ok (_, ec, ic) ->
    let rows =
      List.filter_map
        (fun (b : entry) ->
          Option.map
            (fun (c : entry) ->
              let delta_pct =
                if b.value = 0.0 then if c.value = 0.0 then 0.0 else infinity
                else (c.value -. b.value) /. b.value *. 100.0
              in
              { key = b.key; metric = b.metric; dir = b.dir; base = b.value;
                current = c.value; delta_pct })
            (Hashtbl.find_opt ic (id b)))
        eb
    in
    (* The delta in the metric's better direction. *)
    let gain r =
      match r.dir with Lower_better -> -.r.delta_pct | Higher_better -> r.delta_pct
    in
    let unmatched es other =
      List.filter_map
        (fun e -> if Hashtbl.mem other (id e) then None else Some (id e))
        es
    in
    (* A run picking a different winner than the baseline is worth
       surfacing but is not a regression in itself — the per-candidate
       rows already capture any throughput movement. *)
    let warnings =
      match (J.member "winner" base, J.member "winner" current) with
      | Some (J.String wb), Some (J.String wc) when wb <> wc ->
        [ Printf.sprintf "tuned plan changed: %s -> %s" wb wc ]
      | _ -> []
    in
    Ok
      {
        kind;
        threshold_pct;
        rows;
        regressions = List.filter (fun r -> gain r < -.threshold_pct) rows;
        improvements = List.filter (fun r -> gain r > threshold_pct) rows;
        only_base = unmatched eb ic;
        only_current = unmatched ec ib;
        warnings;
      }

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
      ("direction", J.String (direction_to_string r.dir));
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
