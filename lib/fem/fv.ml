module Sparse = Ttsv_numerics.Sparse
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Obs_span = Ttsv_obs.Span
module Obs_metrics = Ttsv_obs.Metrics

let find_cell faces x =
  let n = Array.length faces - 1 in
  if x <= faces.(0) then 0
  else if x >= faces.(n) then n - 1
  else begin
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      if faces.(m) <= x then lo := m else hi := m
    done;
    !lo
  end

let shape faces = Array.map (fun f -> Array.length f - 1) faces

let m_nnz = Obs_metrics.Gauge.make "assembly.nnz"
let m_cells = Obs_metrics.Gauge.make "grid.cells"

(* Row-direct CSR assembly of the (2·dims + 1)-point stencil.  Row [i]
   lists its lower neighbours (outermost dimension first), itself, then
   its upper neighbours (innermost first), so its columns ascend; its
   diagonal sums the same face conductances in that order, then the sink
   and the extra diagonal.  Each face is evaluated from its lower cell, so
   the two rows sharing it store exactly opposite values.  Rows are built
   independently, so a pool fills chunks of them and the pooled matrix is
   bitwise identical to the sequential one. *)
let assemble ~span ?pool ?extra_diagonal ~faces ~conductivity ~sink area =
  Obs_span.with_ ~name:span (fun () ->
      let shape = shape faces in
      let dims = Array.length shape in
      let stride = Array.make dims 1 in
      for d = 1 to dims - 1 do
        stride.(d) <- stride.(d - 1) * shape.(d - 1)
      done;
      let n = stride.(dims - 1) * shape.(dims - 1) in
      let coords i c =
        for d = 0 to dims - 1 do
          c.(d) <- i / stride.(d) mod shape.(d)
        done
      in
      (* series (harmonic) conductance across the face between cell [i], at
         [c], and its upper neighbour along [d], over the two half cells *)
      let face d c i =
        let f = faces.(d) and x = c.(d) in
        area d c
        /. ((0.5 *. (f.(x + 1) -. f.(x)) /. conductivity.(i))
           +. (0.5 *. (f.(x + 2) -. f.(x + 1)) /. conductivity.(i + stride.(d))))
      in
      let row_ptr = Array.make (n + 1) 0 and c = Array.make dims 0 in
      for i = 0 to n - 1 do
        coords i c;
        let degree = ref 1 in
        for d = 0 to dims - 1 do
          if c.(d) > 0 then incr degree;
          if c.(d) < shape.(d) - 1 then incr degree
        done;
        row_ptr.(i + 1) <- row_ptr.(i) + !degree
      done;
      let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0. in
      let fill_rows ~lo ~hi =
        let c = Array.make dims 0 in
        for i = lo to hi - 1 do
          coords i c;
          let pos = ref row_ptr.(i) and sum = ref 0. in
          for d = dims - 1 downto 0 do
            if c.(d) > 0 then begin
              let j = i - stride.(d) in
              c.(d) <- c.(d) - 1;
              let g = face d c j in
              c.(d) <- c.(d) + 1;
              col_idx.(!pos) <- j;
              values.(!pos) <- -.g;
              incr pos;
              sum := !sum +. g
            end
          done;
          let dslot = !pos in
          col_idx.(dslot) <- i;
          incr pos;
          for d = 0 to dims - 1 do
            if c.(d) < shape.(d) - 1 then begin
              let g = face d c i in
              col_idx.(!pos) <- i + stride.(d);
              values.(!pos) <- -.g;
              incr pos;
              sum := !sum +. g
            end
          done;
          if c.(dims - 1) = 0 then sum := !sum +. sink i;
          (match extra_diagonal with None -> () | Some e -> sum := !sum +. e.(i));
          values.(dslot) <- !sum
        done
      in
      (match pool with
      | None -> fill_rows ~lo:0 ~hi:n
      | Some pool -> Ttsv_parallel.Pool.for_chunks ~chunk:64 ~min_size:256 pool n fill_rows);
      let matrix = Sparse.of_csr ~nrows:n ~ncols:n ~row_ptr ~col_idx ~values in
      (* the assembled shape: gauges for the registry and, when a trace is
         open, a point event tied to the assembly span *)
      if Ttsv_obs.Flags.enabled () then begin
        let nnz = Sparse.nnz matrix in
        Obs_metrics.Gauge.set m_nnz (float_of_int nnz);
        Obs_metrics.Gauge.set m_cells (float_of_int n);
        if Ttsv_obs.Flags.trace_on () then
          Ttsv_obs.Sink.metric ?span:(Obs_span.current ()) ~kind:"gauge" ~name:"assembly.nnz"
            (Ttsv_obs.Json.Int nnz)
      end;
      matrix)

(* Reject physically meaningless fields before assembling: a single NaN
   conductivity or source poisons the whole system. *)
let check_fields ~conductivity ~source =
  let bad name arr ok =
    match Array.find_index (fun v -> not (ok v)) arr with
    | None -> []
    | Some i -> [ Printf.sprintf "%s contains invalid entries (first at cell %d)" name i ]
  in
  match
    bad "conductivity field" conductivity (fun k -> Float.is_finite k && k > 0.)
    @ bad "source field" source Float.is_finite
  with
  | [] -> Ok ()
  | problems ->
    Error
      {
        Robust.reason = Robust.Invalid_input problems;
        diagnostics = Diagnostics.empty;
        best = None;
        best_residual = Float.nan;
      }

let ladder_solve ~span ~tol ~max_iter_for ?max_iter ?x0 ?pool ?rungs ?budget ~faces
    ~conductivity ~source assemble =
  match check_fields ~conductivity ~source with
  | Error f -> Error f
  | Ok () ->
    let matrix = assemble () in
    let max_iter = Option.value max_iter ~default:(max_iter_for (Sparse.rows matrix)) in
    Obs_span.with_ ~name:span (fun () ->
        Robust.solve ~tol ~max_iter ?x0 ?pool ?rungs ~shape:(shape faces) ?budget matrix source)

let energy_imbalance ~faces ~sink ~total_source temps =
  if total_source = 0. then 0.
  else begin
    (* the bottom layer: the first cells, whose last coordinate is 0 *)
    let bottom = Array.length temps / (Array.length faces.(Array.length faces - 1) - 1) in
    let flow = ref 0. in
    for i = 0 to bottom - 1 do
      flow := !flow +. (sink i *. temps.(i))
    done;
    Float.abs (!flow -. total_source) /. total_source
  end
