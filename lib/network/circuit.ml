module Vec = Ttsv_numerics.Vec
module Dense = Ttsv_numerics.Dense
module Sparse = Ttsv_numerics.Sparse
module Iterative = Ttsv_numerics.Iterative

type node = { cid : int; idx : int } (* idx = -1 for ground *)

type resistor = { a : int; b : int; r : float }

type t = {
  id : int;
  mutable names : string list; (* reversed *)
  mutable n : int;
  mutable resistors : resistor list;
  sources : (int, float) Hashtbl.t;
}

let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id; names = []; n = 0; resistors = []; sources = Hashtbl.create 16 }

let ground c = { cid = c.id; idx = -1 }

let add_node c name =
  let idx = c.n in
  c.n <- c.n + 1;
  c.names <- name :: c.names;
  { cid = c.id; idx }

let check_node fn c nd =
  if nd.cid <> c.id then invalid_arg ("Circuit." ^ fn ^ ": node from another circuit");
  if nd.idx < -1 || nd.idx >= c.n then invalid_arg ("Circuit." ^ fn ^ ": invalid node")

let add_resistor c a b r =
  check_node "add_resistor" c a;
  check_node "add_resistor" c b;
  if a.idx = b.idx then invalid_arg "Circuit.add_resistor: self-loop";
  if not (Float.is_finite r) || r <= 0. then
    invalid_arg "Circuit.add_resistor: resistance must be positive and finite";
  c.resistors <- { a = a.idx; b = b.idx; r } :: c.resistors

let add_heat_source c nd q =
  check_node "add_heat_source" c nd;
  if nd.idx >= 0 then begin
    let prev = Option.value (Hashtbl.find_opt c.sources nd.idx) ~default:0. in
    Hashtbl.replace c.sources nd.idx (prev +. q)
  end

type solution = { circuit : t; temps : float array; matrix : Sparse.t; rhs : float array }

let check_connected c =
  (* BFS from ground over the resistor graph *)
  let adj = Array.make c.n [] in
  let from_ground = ref [] in
  List.iter
    (fun { a; b; _ } ->
      if a = -1 then from_ground := b :: !from_ground
      else if b = -1 then from_ground := a :: !from_ground
      else begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    c.resistors;
  let seen = Array.make c.n false in
  let rec visit = function
    | [] -> ()
    | i :: rest ->
      if seen.(i) then visit rest
      else begin
        seen.(i) <- true;
        visit (List.rev_append adj.(i) rest)
      end
  in
  visit !from_ground;
  Array.iteri
    (fun i ok ->
      if not ok then
        invalid_arg
          (Printf.sprintf "Circuit.solve: node %S has no path to ground"
             (List.nth c.names (c.n - 1 - i))))
    seen

let assemble c =
  let b = Sparse.builder ~hint:(4 * List.length c.resistors) c.n c.n in
  List.iter
    (fun { a; b = bb; r } ->
      let g = 1. /. r in
      if a >= 0 then Sparse.add b a a g;
      if bb >= 0 then Sparse.add b bb bb g;
      if a >= 0 && bb >= 0 then begin
        Sparse.add b a bb (-.g);
        Sparse.add b bb a (-.g)
      end)
    c.resistors;
  let rhs = Array.make c.n 0. in
  Hashtbl.iter (fun i q -> rhs.(i) <- rhs.(i) +. q) c.sources;
  (Sparse.finalize b, rhs)

(* Dense LU up to 256 nodes; above that, conjugate gradients, falling back
   to LU when CG stagnates on extreme conductance ratios. *)
let solve_system c matrix rhs =
  if c.n <= 256 then Dense.solve (Sparse.to_dense matrix) rhs
  else
    match Iterative.cg ~tol:1e-12 matrix rhs with
    | { solution; converged = true; _ } -> solution
    | { converged = false; _ } -> Dense.solve (Sparse.to_dense matrix) rhs

(* Thevenin resistance between two nodes: inject +1 W at [a], -1 W at [b],
   read the temperature difference.  Sources are ignored by solving with a
   unit-injection right-hand side only. *)
let equivalent_resistance c a b =
  check_node "equivalent_resistance" c a;
  check_node "equivalent_resistance" c b;
  if a.idx = b.idx then 0.
  else begin
    check_connected c;
    let matrix, _ = assemble c in
    let rhs = Array.make c.n 0. in
    if a.idx >= 0 then rhs.(a.idx) <- rhs.(a.idx) +. 1.;
    if b.idx >= 0 then rhs.(b.idx) <- rhs.(b.idx) -. 1.;
    let temps = solve_system c matrix rhs in
    let at i = if i = -1 then 0. else temps.(i) in
    at a.idx -. at b.idx
  end

let solve c =
  if c.n = 0 then
    { circuit = c; temps = [||]; matrix = Sparse.finalize (Sparse.builder 0 0); rhs = [||] }
  else begin
    check_connected c;
    let matrix, rhs = assemble c in
    { circuit = c; temps = solve_system c matrix rhs; matrix; rhs }
  end

let temperature s nd =
  check_node "temperature" s.circuit nd;
  if nd.idx = -1 then 0. else s.temps.(nd.idx)

let max_temperature s = if Array.length s.temps = 0 then 0. else Vec.max_elt s.temps

let residual_norm s =
  if Array.length s.temps = 0 then 0.
  else Vec.norm_inf (Vec.sub (Sparse.mat_vec s.matrix s.temps) s.rhs)
