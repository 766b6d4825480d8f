(* Pointer analysis with union-find — the compiler application behind the
   paper's "storage allocation in compilers" citation (Lattner & Adve's pool
   allocation rests on a unification-based points-to analysis).

   Steensgaard's analysis processes each statement with a constant number of
   union-find operations (abstract locations are created on the fly — the
   paper's MakeSet extension) and answers may-alias queries in near-constant
   time.  Andersen's inclusion-based analysis is more precise but cubic;
   this example shows both the speed gap and the precision gap.

   Run with:  dune exec examples/pointer_analysis.exe *)

module S = Analysis.Steensgaard
module A = Analysis.Andersen

let () =
  (* A small program, annotated. *)
  let program =
    [
      S.Address_of ("p", "x");   (* p = &x  *)
      S.Address_of ("q", "y");   (* q = &y  *)
      S.Address_of ("r", "z");   (* r = &z  *)
      S.Copy ("s", "p");         (* s = p   *)
      S.Store ("q", "r");        (* *q = r  *)
      S.Load ("t", "q");         (* t = *q  *)
    ]
  in
  print_endline "program:";
  List.iter (fun st -> Format.printf "  %a@." S.pp_stmt st) program;

  let steens = S.analyze program in
  let anders = A.analyze program in
  print_endline "\nmay-alias matrix (S = Steensgaard, A = Andersen):";
  let vars = A.variables anders in
  Format.printf "%6s" "";
  List.iter (fun v -> Format.printf "%5s" v) vars;
  Format.printf "@.";
  List.iter
    (fun a ->
      Format.printf "%6s" a;
      List.iter
        (fun b ->
          let s = S.may_alias steens a b and an = A.may_alias anders a b in
          Format.printf "%5s"
            (match (s, an) with
            | true, true -> "SA"
            | true, false -> "S"
            | false, true -> "!!"     (* would be a soundness bug *)
            | false, false -> "."))
        vars;
      Format.printf "@.")
    vars;
  print_endline
    "(SA = both agree alias, S = only Steensgaard (its precision loss),\n\
    \ . = neither; '!!' would mean unsoundness and never appears)";

  (* Scale comparison: Steensgaard is near-linear, Andersen cubic. *)
  print_endline "\nscaling (random programs, may-alias over all variable pairs):";
  Printf.printf "%10s %12s %12s %16s\n" "stmts" "steens (s)" "andersen (s)"
    "extra S aliases";
  let rng = Repro_util.Rng.create 5 in
  List.iter
    (fun size ->
      let nvars = size / 10 in
      let var i = Printf.sprintf "v%d" i in
      let program =
        List.init size (fun _ ->
            let x = var (Repro_util.Rng.int rng nvars) in
            let y = var (Repro_util.Rng.int rng nvars) in
            match Repro_util.Rng.int rng 4 with
            | 0 -> S.Address_of (x, y)
            | 1 -> S.Copy (x, y)
            | 2 -> S.Load (x, y)
            | _ -> S.Store (x, y))
      in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let steens, st = time (fun () -> S.analyze program) in
      let anders, at = time (fun () -> A.analyze program) in
      let extra = ref 0 in
      let vars = A.variables anders in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let s = S.may_alias steens x y and a = A.may_alias anders x y in
              assert ((not a) || s);
              if s && not a then incr extra)
            vars)
        vars;
      Printf.printf "%10d %12.4f %12.4f %16d\n%!" size st at !extra)
    [ 250; 1_000; 2_000 ]
