(** E15 — the independence assumption (Section 4's starred assumption,
    discussed in
    Section 7): randomized linking's bounds assume the random node order is
    independent of the linearization order of the Unites.  An id-aware
    adversary can violate this: uniting elements in increasing id order
    makes every link extend a path, so the union forest degenerates to a
    chain of height n-1 and uncompacted finds cost Θ(n).

    Section 7's answer is linking by rank ("one of them is randomized and
    needs no independence assumption; the other two are deterministic");
    {!Dsu.Packed} implements a deterministic one (rank linking, index
    tie-break, over one packed word), and this experiment shows it is
    immune to the same adversary.  Compaction (splitting) also
    repairs the damage for randomized linking in the amortized sense — the
    chain is expensive once, not per operation. *)

module Table = Repro_util.Table

(* Adversarial schedule: unite elements in increasing id order.  For the
   randomized structure the adversary reads the ids off the handle (the
   model allows this: ids are not secret, and real workloads can correlate
   with them by accident); for the rank structure there are no ids, so the
   same schedule unites in element order. *)

let randomized_chain ~policy ~n ~seed =
  let links = ref [] in
  let d =
    Dsu.Native.create ~policy ~seed
      ~on_link:(fun ~child ~parent -> links := (child, parent) :: !links)
      n
  in
  (* Sort elements by their random id, then unite neighbours in that order. *)
  let by_id = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (Dsu.Native.id d a) (Dsu.Native.id d b)) by_id;
  for i = 0 to n - 2 do
    Dsu.Native.unite d by_id.(i) by_id.(i + 1)
  done;
  Forest.height (Forest.of_links ~n !links)

let randomized_probe_work ~policy ~n ~seed =
  (* Same adversarial build, then measure the work of n/8 random queries. *)
  let d = Dsu.Native.create ~policy ~seed ~collect_stats:true n in
  let by_id = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (Dsu.Native.id d a) (Dsu.Native.id d b)) by_id;
  for i = 0 to n - 2 do
    Dsu.Native.unite d by_id.(i) by_id.(i + 1)
  done;
  let before = Dsu.Native.stats d in
  let rng = Repro_util.Rng.create (seed + 1) in
  let probes = n / 8 in
  for _ = 1 to probes do
    ignore (Dsu.Native.same_set d (Repro_util.Rng.int rng n) (Repro_util.Rng.int rng n))
  done;
  let delta = Dsu.Stats.sub (Dsu.Native.stats d) before in
  float_of_int (Dsu.Stats.total_work delta) /. float_of_int probes

let rank_chain_height ~n =
  let d = Dsu.Packed.Native.create n in
  for i = 0 to n - 2 do
    Dsu.Packed.Native.unite d i (i + 1)
  done;
  let max_depth = ref 0 in
  for i = 0 to n - 1 do
    let u = ref i and depth = ref 0 in
    while Dsu.Packed.Native.parent_of d !u <> !u do
      u := Dsu.Packed.Native.parent_of d !u;
      incr depth
    done;
    max_depth := max !max_depth !depth
  done;
  !max_depth

let run ppf =
  let table =
    Table.create
      ~headers:
        [ "n"; "structure"; "union-forest height"; "height / lg n"; "probe work/op" ]
  in
  List.iter
    (fun n ->
      let lg = float_of_int (Repro_util.Alpha.floor_log2 n) in
      let h_rand = randomized_chain ~policy:Dsu.Find_policy.No_compaction ~n ~seed:n in
      let w_none =
        randomized_probe_work ~policy:Dsu.Find_policy.No_compaction ~n ~seed:n
      in
      Table.add_row table
        [
          Table.cell_int n;
          "randomized, none";
          Table.cell_int h_rand;
          Table.cell_float (float_of_int h_rand /. lg);
          Table.cell_float w_none;
        ];
      let w_split =
        randomized_probe_work ~policy:Dsu.Find_policy.Two_try_splitting ~n ~seed:n
      in
      Table.add_row table
        [
          Table.cell_int n;
          "randomized, two-try";
          Table.cell_int h_rand;
          Table.cell_float (float_of_int h_rand /. lg);
          Table.cell_float w_split;
        ];
      let h_rank = rank_chain_height ~n in
      Table.add_row table
        [
          Table.cell_int n;
          "by-rank (Sec. 7)";
          Table.cell_int h_rank;
          Table.cell_float (float_of_int h_rank /. lg);
          "-";
        ];
      Table.add_rule table)
    [ 1 lsl 8; 1 lsl 10; 1 lsl 12 ];
  Table.pp ppf table;
  Format.fprintf ppf
    "@.expected shape: the id-aware adversarial union order drives the \
     randomized union forest to height n-1 (height/lg n blows up) and makes \
     uncompacted probes cost Theta(n) — the independence assumption is real, \
     not an analysis artifact.  Splitting repairs the per-probe cost \
     (amortized), and the Section 7 rank-based variant never degenerates \
     (height stays <= lg n with no assumption).@."

let experiment =
  Experiment.make ~id:"e15" ~title:"the independence assumption, violated"
    ~claim:
      "Sections 4 and 7: the bounds assume the random node order is \
       independent of the Unite order; linking by rank removes the \
       assumption"
    run
