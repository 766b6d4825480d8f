type stmt =
  | Address_of of string * string
  | Copy of string * string
  | Load of string * string
  | Store of string * string

let pp_stmt ppf = function
  | Address_of (x, y) -> Format.fprintf ppf "%s = &%s" x y
  | Copy (x, y) -> Format.fprintf ppf "%s = %s" x y
  | Load (x, y) -> Format.fprintf ppf "%s = *%s" x y
  | Store (x, y) -> Format.fprintf ppf "*%s = %s" x y

type t = {
  cells : Dsu.Growable.t;
  var_cell : (string, int) Hashtbl.t;
  pts : (int, int) Hashtbl.t;
      (** class representative -> pointee cell; always keyed by the
          {e current} representative of the class *)
}

let create () =
  {
    cells = Dsu.Growable.create ();
    var_cell = Hashtbl.create 64;
    pts = Hashtbl.create 64;
  }

let find t cell = Dsu.Growable.find t.cells cell

let cell_of_var t x =
  match Hashtbl.find_opt t.var_cell x with
  | Some c -> c
  | None ->
    let c = Dsu.Growable.make_set t.cells in
    Hashtbl.replace t.var_cell x c;
    c

(* Unify the classes of two cells, merging their points-to facts; when both
   classes have pointees, those pointees are unified recursively (setting
   the merged fact before recursing keeps cyclic structures like x = *x
   terminating). *)
let rec join t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let pa = Hashtbl.find_opt t.pts ra in
    let pb = Hashtbl.find_opt t.pts rb in
    Hashtbl.remove t.pts ra;
    Hashtbl.remove t.pts rb;
    Dsu.Growable.unite t.cells ra rb;
    let r = find t ra in
    match (pa, pb) with
    | None, None -> ()
    | Some p, None | None, Some p -> Hashtbl.replace t.pts r p
    | Some p1, Some p2 ->
      Hashtbl.replace t.pts r p1;
      join t p1 p2
  end

(* The pointee cell of a class, created on first demand — a fresh abstract
   location, i.e. a MakeSet. *)
let pointee t cell =
  let r = find t cell in
  match Hashtbl.find_opt t.pts r with
  | Some p -> p
  | None ->
    let fresh = Dsu.Growable.make_set t.cells in
    Hashtbl.replace t.pts r fresh;
    fresh

let process t = function
  | Address_of (x, y) -> join t (pointee t (cell_of_var t x)) (cell_of_var t y)
  | Copy (x, y) -> join t (pointee t (cell_of_var t x)) (pointee t (cell_of_var t y))
  | Load (x, y) ->
    let py = pointee t (cell_of_var t y) in
    join t (pointee t (cell_of_var t x)) (pointee t py)
  | Store (x, y) ->
    let px = pointee t (cell_of_var t x) in
    join t (pointee t px) (pointee t (cell_of_var t y))

let analyze stmts =
  let t = create () in
  List.iter (process t) stmts;
  t

let pts_repr t x =
  match Hashtbl.find_opt t.var_cell x with
  | None -> None
  | Some c -> (
    match Hashtbl.find_opt t.pts (find t c) with
    | None -> None
    | Some p -> Some (find t p))

let may_alias t x y =
  match (pts_repr t x, pts_repr t y) with
  | Some a, Some b -> a = b
  | None, _ | _, None -> false

let same_class t x y =
  match (Hashtbl.find_opt t.var_cell x, Hashtbl.find_opt t.var_cell y) with
  | Some a, Some b -> find t a = find t b
  | None, _ | _, None -> false

let points_to_repr = pts_repr

let variables t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.var_cell [] |> List.sort compare

let cells_used t = Dsu.Growable.cardinal t.cells
