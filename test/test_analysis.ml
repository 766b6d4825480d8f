(* Tests for the pointer-analysis library: Steensgaard's unification
   analysis (built on Dsu.Growable) against hand-worked examples and the
   Andersen inclusion-based oracle. *)

module S = Analysis.Steensgaard
module A = Analysis.Andersen
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let steensgaard_tests =
  [
    case "empty program: nothing aliases" (fun () ->
        let t = S.analyze [] in
        check Alcotest.bool "alias" false (S.may_alias t "x" "y");
        check Alcotest.(list string) "vars" [] (S.variables t));
    case "two pointers to the same target alias" (fun () ->
        let t = S.analyze [ S.Address_of ("p", "x"); S.Address_of ("q", "x") ] in
        check Alcotest.bool "p~q" true (S.may_alias t "p" "q"));
    case "pointers to different targets become aliased only by unification"
      (fun () ->
        let t = S.analyze [ S.Address_of ("p", "x"); S.Address_of ("q", "y") ] in
        check Alcotest.bool "p!~q" false (S.may_alias t "p" "q");
        (* Now copy q into p: Steensgaard unifies their pointees. *)
        S.process t (S.Copy ("p", "q"));
        check Alcotest.bool "p~q after copy" true (S.may_alias t "p" "q");
        (* Unification is symmetric and infectious: x and y are now in one
           class, so anything pointing at either aliases. *)
        check Alcotest.bool "x~y classes" true (S.same_class t "x" "y"));
    case "copy chains propagate" (fun () ->
        let t =
          S.analyze
            [
              S.Address_of ("a", "v");
              S.Copy ("b", "a");
              S.Copy ("c", "b");
              S.Address_of ("d", "w");
            ]
        in
        check Alcotest.bool "a~c" true (S.may_alias t "a" "c");
        check Alcotest.bool "c!~d" false (S.may_alias t "c" "d"));
    case "load and store unify through the heap" (fun () ->
        (* p = &x; q = &p; r = *q  =>  r aliases p. *)
        let t =
          S.analyze
            [ S.Address_of ("p", "x"); S.Address_of ("q", "p"); S.Load ("r", "q") ]
        in
        check Alcotest.bool "r~p" true
          (S.same_class t "r" "p" || S.may_alias t "r" "p"));
    case "store writes through a pointer" (fun () ->
        (* p = &x; q = &y; *p = q  =>  x's cell now points where q points. *)
        let t =
          S.analyze
            [
              S.Address_of ("p", "x");
              S.Address_of ("q", "y");
              S.Store ("p", "q");
            ]
        in
        check Alcotest.bool "x~q" true (S.may_alias t "x" "q"));
    case "self statements terminate" (fun () ->
        (* Cyclic structures exercise the recursive pointee join. *)
        let t =
          S.analyze
            [
              S.Address_of ("p", "p");
              S.Load ("p", "p");
              S.Store ("p", "p");
              S.Copy ("p", "p");
            ]
        in
        check Alcotest.bool "p~p" true (S.may_alias t "p" "p"));
    case "process is idempotent" (fun () ->
        let stmts = [ S.Address_of ("p", "x"); S.Copy ("q", "p") ] in
        let t = S.analyze (stmts @ stmts @ stmts) in
        let t' = S.analyze stmts in
        check Alcotest.bool "same verdicts" true
          (S.may_alias t "p" "q" = S.may_alias t' "p" "q"));
    case "flow insensitivity: order does not matter" (fun () ->
        let stmts =
          [
            S.Address_of ("p", "x");
            S.Copy ("q", "p");
            S.Address_of ("r", "y");
            S.Store ("q", "r");
            S.Load ("s", "p");
          ]
        in
        let verdicts t =
          List.concat_map
            (fun a ->
              List.map (fun b -> S.may_alias t a b) [ "p"; "q"; "r"; "s"; "x"; "y" ])
            [ "p"; "q"; "r"; "s"; "x"; "y" ]
        in
        let forward = S.analyze stmts in
        let backward = S.analyze (List.rev stmts) in
        check Alcotest.(list bool) "same result" (verdicts forward) (verdicts backward));
    case "cells grow on demand" (fun () ->
        let t = S.create () in
        check Alcotest.int "empty" 0 (S.cells_used t);
        S.process t (S.Address_of ("p", "x"));
        check Alcotest.bool "allocated" true (S.cells_used t >= 2));
  ]

(* Soundness direction: wherever Andersen says two of [vars] alias,
   Steensgaard must too. *)
let at_least_as_precise ~stmts a s vars =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if A.may_alias a x y then
            check Alcotest.bool
              (Format.asprintf "%s ~ %s in [%a]" x y
                 (Format.pp_print_list
                    ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
                    S.pp_stmt)
                 stmts)
              true (S.may_alias s x y))
        vars)
    vars

let andersen_tests =
  [
    case "address-of gives a singleton" (fun () ->
        let t = A.analyze [ S.Address_of ("p", "x") ] in
        check Alcotest.(list string) "pts p" [ "x" ] (A.points_to t "p"));
    case "copy unions the sets" (fun () ->
        let t =
          A.analyze
            [ S.Address_of ("p", "x"); S.Address_of ("q", "y"); S.Copy ("r", "p");
              S.Copy ("r", "q") ]
        in
        check Alcotest.(list string) "pts r" [ "x"; "y" ] (A.points_to t "r");
        check Alcotest.bool "r~p" true (A.may_alias t "r" "p");
        check Alcotest.bool "p!~q" false (A.may_alias t "p" "q"));
    case "load goes through the points-to set" (fun () ->
        let t =
          A.analyze
            [
              S.Address_of ("p", "x");
              S.Address_of ("q", "p");
              S.Address_of ("x", "z");
              S.Load ("r", "q");
            ]
        in
        (* q -> {p}; r = *q means r gets pts(p) = {x}. *)
        check Alcotest.(list string) "pts r" [ "x" ] (A.points_to t "r"));
    case "store writes into pointees" (fun () ->
        let t =
          A.analyze
            [
              S.Address_of ("p", "x");
              S.Address_of ("q", "y");
              S.Store ("p", "q");
            ]
        in
        (* *p = q writes pts(q) into x. *)
        check Alcotest.(list string) "pts x" [ "y" ] (A.points_to t "x"));
    case "andersen is at least as precise as steensgaard" (fun () ->
        (* Soundness direction on random programs: Andersen alias implies
           Steensgaard alias. *)
        let rng = Rng.create 77 in
        let var i = Printf.sprintf "v%d" i in
        for _trial = 1 to 60 do
          let stmts =
            List.init 14 (fun _ ->
                let x = var (Rng.int rng 6) and y = var (Rng.int rng 6) in
                match Rng.int rng 4 with
                | 0 -> S.Address_of (x, y)
                | 1 -> S.Copy (x, y)
                | 2 -> S.Load (x, y)
                | _ -> S.Store (x, y))
          in
          let a = A.analyze stmts in
          at_least_as_precise ~stmts a (S.analyze stmts) (A.variables a)
        done);
    case "steensgaard grows past 4096 locations, andersen still as precise"
      (fun () ->
        (* 3,000 statements over distinct variables: 3,000 copies, each
           creating cells for both sides and their pointees, plus an
           address-of for every third right-hand side so some classes
           alias. *)
        let copies =
          List.init 3000 (fun i ->
              S.Copy (Printf.sprintf "a%d" i, Printf.sprintf "b%d" i))
        in
        let addrs =
          List.init 1000 (fun i ->
              S.Address_of (Printf.sprintf "b%d" (3 * i), Printf.sprintf "t%d" (i mod 40)))
        in
        let stmts = copies @ addrs in
        let s = S.analyze stmts in
        check Alcotest.bool "more than 4096 locations" true (S.cells_used s > 4096);
        check Alcotest.bool "a0 ~ a120" true (S.may_alias s "a0" "a120");
        let a = A.analyze stmts in
        (* Every a/b pair among the first 300 statements plus the targets. *)
        let sample =
          List.concat
            [
              List.init 300 (Printf.sprintf "a%d");
              List.init 300 (Printf.sprintf "b%d");
              List.init 40 (Printf.sprintf "t%d");
            ]
        in
        at_least_as_precise ~stmts:[] a s sample);
  ]

let () =
  Alcotest.run "analysis"
    [ ("steensgaard", steensgaard_tests); ("andersen", andersen_tests) ]
