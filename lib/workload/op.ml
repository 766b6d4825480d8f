type t = Unite of int * int | Same_set of int * int | Find of int

let pp ppf = function
  | Unite (x, y) -> Format.fprintf ppf "unite(%d, %d)" x y
  | Same_set (x, y) -> Format.fprintf ppf "same_set(%d, %d)" x y
  | Find x -> Format.fprintf ppf "find(%d)" x

let max_node ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Unite (x, y) | Same_set (x, y) -> max acc (max x y)
      | Find x -> max acc x)
    (-1) ops

let count_unites ops =
  List.fold_left
    (fun acc op -> match op with Unite _ -> acc + 1 | Same_set _ | Find _ -> acc)
    0 ops

let round_robin items ~p =
  if p < 1 then invalid_arg "Op.round_robin: p must be >= 1";
  let buckets = Array.make p [] in
  List.iteri (fun i item -> buckets.(i mod p) <- item :: buckets.(i mod p)) items;
  Array.map List.rev buckets

let blocks items ~p =
  if p < 1 then invalid_arg "Op.blocks: p must be >= 1";
  let arr = Array.of_list items in
  let total = Array.length arr in
  let base = total / p and extra = total mod p in
  let buckets = Array.make p [] in
  let pos = ref 0 in
  for i = 0 to p - 1 do
    let len = base + if i < extra then 1 else 0 in
    buckets.(i) <- Array.to_list (Array.sub arr !pos len);
    pos := !pos + len
  done;
  buckets

let duplicate items ~p =
  if p < 1 then invalid_arg "Op.duplicate: p must be >= 1";
  Array.make p items

(* The hot loops iterate contiguous arrays, not lists: a benchmark inner
   loop that chases list cells interleaves its cache misses with the DSU's
   own, polluting exactly the locality the flat parent array buys.  The
   list entry points convert once and delegate. *)

let run_native_array d ops =
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Unite (x, y) -> Dsu.Native.unite d x y
    | Same_set (x, y) -> ignore (Dsu.Native.same_set d x y)
    | Find x -> ignore (Dsu.Native.find d x)
  done

(* Batched runner: walk the stream as maximal runs of consecutive
   same-kind [Unite]/[Same_set] ops (capped at [batch]).  Long runs are
   copied into endpoint arrays and handed to the bulk kernels
   ([Dsu.Native.unite_batch] / [same_set_batch]); runs shorter than
   [min_kernel_run] execute per-op straight from the ops array — the
   kernels pay a per-call root-cache allocation that only amortizes over
   long runs, so a kind-alternating stream must degrade to exactly the
   per-op loop, with no buffering on the way.  [Find]s break runs and
   execute directly. *)
let min_kernel_run = 32

let run_native_array_batched d ?(batch = 2048) ops =
  if batch < 1 then invalid_arg "Op.run_native_array_batched: batch must be >= 1";
  let len = Array.length ops in
  let same_kind a b =
    match (a, b) with
    | Unite _, Unite _ | Same_set _, Same_set _ -> true
    | _ -> false
  in
  let i = ref 0 in
  while !i < len do
    match Array.unsafe_get ops !i with
    | Find x ->
      ignore (Dsu.Native.find d x);
      incr i
    | op ->
      let j = ref (!i + 1) in
      while
        !j < len && !j - !i < batch && same_kind op (Array.unsafe_get ops !j)
      do
        incr j
      done;
      let run = !j - !i in
      (if run < min_kernel_run then
         for k = !i to !j - 1 do
           match Array.unsafe_get ops k with
           | Unite (x, y) -> Dsu.Native.unite d x y
           | Same_set (x, y) -> ignore (Dsu.Native.same_set d x y)
           | Find _ -> assert false
         done
       else
         let xs = Array.make run 0 and ys = Array.make run 0 in
         for k = 0 to run - 1 do
           match Array.unsafe_get ops (!i + k) with
           | Unite (x, y) | Same_set (x, y) ->
             Array.unsafe_set xs k x;
             Array.unsafe_set ys k y
           | Find _ -> assert false
         done;
         match op with
         | Unite _ -> Dsu.Native.unite_batch d xs ys
         | Same_set _ -> ignore (Dsu.Native.same_set_batch d xs ys)
         | Find _ -> assert false);
      i := !j
  done

let run_packed_array d ops =
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Unite (x, y) -> Dsu.Packed.Native.unite d x y
    | Same_set (x, y) -> ignore (Dsu.Packed.Native.same_set d x y)
    | Find x -> ignore (Dsu.Packed.Native.find d x)
  done

let run_seq_array d ops =
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Unite (x, y) -> Sequential.Seq_dsu.unite d x y
    | Same_set (x, y) -> ignore (Sequential.Seq_dsu.same_set d x y)
    | Find x -> ignore (Sequential.Seq_dsu.find d x)
  done

let run_quick_find_array d ops =
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Unite (x, y) -> Sequential.Quick_find.unite d x y
    | Same_set (x, y) -> ignore (Sequential.Quick_find.same_set d x y)
    | Find x -> ignore (Sequential.Quick_find.label d x)
  done

let run_native d ops = run_native_array d (Array.of_list ops)
let run_seq d ops = run_seq_array d (Array.of_list ops)
let run_quick_find d ops = run_quick_find_array d (Array.of_list ops)

let to_sim_ops h ops =
  List.map
    (fun op ->
      match op with
      | Unite (x, y) -> Dsu.Sim.unite_op h x y
      | Same_set (x, y) -> Dsu.Sim.same_set_op h x y
      | Find x -> Dsu.Sim.find_op h x)
    ops

let to_sim_ops_aw h ops =
  List.map
    (fun op ->
      match op with
      | Unite (x, y) -> Baselines.Anderson_woll.Sim.unite_op h x y
      | Same_set (x, y) -> Baselines.Anderson_woll.Sim.same_set_op h x y
      | Find x -> Baselines.Anderson_woll.Sim.same_set_op h x x)
    ops
