module Rng = Repro_util.Rng

module Memory = struct
  type t = unit

  let read () a = Apram.Process.read a
  let cas () a expected desired = Apram.Process.cas a expected desired

  (* The simulator counts steps, not fences: a weak CAS costs the same
     simulated step as a strong one, and prefetch is not a memory step at
     all. *)
  let cas_weak = cas
  let prefetch () _ = ()
end

module A = Dsu_algorithm.Make (Memory) (Dsu_algorithm.By_id (Memory))

type spec = { n : int; policy : Find_policy.t; early : bool; ids : int array }

let spec ?(policy = Find_policy.Two_try_splitting) ?(early = false) ?ids ~n ~seed () =
  if n < 1 then invalid_arg "Dsu_sim.spec: n must be >= 1";
  let ids =
    match ids with Some ids -> ids | None -> Rng.permutation (Rng.create seed) n
  in
  if Array.length ids <> n then invalid_arg "Dsu_sim.spec: ids length mismatch";
  { n; policy; early; ids }

let mem_size spec = spec.n

let init _spec i = i

type t = A.t

let handle ?on_link (spec : spec) =
  let stats = Dsu_stats.create () in
  let ids = spec.ids in
  A.create ~policy:spec.policy ~early:spec.early ~stats ?on_link ~mem:()
    ~n:spec.n ~prio:(fun i -> ids.(i)) ()

let stats t =
  match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let same_set = A.same_set
let unite = A.unite
let find = A.find

let same_set_op t x y () =
  Apram.Process.record_invoke ~name:"same_set" ~args:[ x; y ];
  let r = A.same_set t x y in
  Apram.Process.record_return (if r then 1 else 0)

let unite_op t x y () =
  Apram.Process.record_invoke ~name:"unite" ~args:[ x; y ];
  A.unite t x y;
  Apram.Process.record_return 0

let find_op t x () =
  Apram.Process.record_invoke ~name:"find" ~args:[ x ];
  let r = A.find t x in
  Apram.Process.record_return r

let root_in_memory memory x =
  let rec loop u =
    let p = Apram.Memory.peek memory u in
    if p = u then u else loop p
  in
  loop x

let roots_of_memory (spec : spec) memory =
  Array.init spec.n (fun i -> root_in_memory memory i)

let sets_of_memory (spec : spec) memory =
  let roots = roots_of_memory spec memory in
  let classes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = spec.n - 1 downto 0 do
    let r = roots.(i) in
    let existing = Option.value ~default:[] (Hashtbl.find_opt classes r) in
    Hashtbl.replace classes r (i :: existing)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) classes []
  |> List.map (List.sort compare)
  |> List.sort compare
